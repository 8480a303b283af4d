#!/usr/bin/env python
"""One-command benchmark smoke runner (the CI entry point).

Runs every benchmark plane in ``REPRO_BENCH_SMOKE=1`` mode, then
validates the ``BENCH_*.json`` artifact each one emits — existence, the
expected experiment tag, a ``host`` record naming where it was measured,
and the plane's own gate (non-empty records,
bit-identity flags, error-free serving, chaos curves present).  Smoke artifacts go to the
gitignored ``.bench_smoke/`` (``conftest.artifact_path``), so a smoke run
leaves the committed full-run artifacts untouched.  Any pytest failure,
suite that runs past ``SUITE_TIMEOUT_S`` or artifact regression makes
the runner exit non-zero, so one CI step covers every plane.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/run_smoke.py

The runner sets ``REPRO_BENCH_SMOKE=1`` itself and forwards the rest of
the environment untouched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Callable, Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _records_nonempty(data: Dict[str, Any]) -> List[str]:
    if not data.get("records"):
        return ["records list is empty"]
    return []


def _check_host(data: Dict[str, Any]) -> List[str]:
    """Every artifact names the host and commit it was measured on."""
    if not isinstance(data.get("host"), dict):
        return ["no host record (conftest.host_fingerprint)"]
    return []


def _check_pipeline(data: Dict[str, Any]) -> List[str]:
    """E18: every construction record states it is bit-identical to its
    reference, except the spanner, which is randomized and instead stays
    within its edge bound."""
    problems = _records_nonempty(data)
    construction = data.get("construction", [])
    if not construction:
        problems.append("construction list is empty")
    for record in construction:
        if "edge_bound_2x" in record:
            if not record.get("edges", float("inf")) <= record["edge_bound_2x"]:
                problems.append(f"spanner above its edge bound: {record}")
        elif record.get("identical_to_reference") is not True:
            problems.append(f"construction not shown bit-identical: {record}")
    return problems


def _check_serve(data: Dict[str, Any]) -> List[str]:
    """E21: both serving paths answer alike and no request errors."""
    problems = _records_nonempty(data)
    if data.get("mismatches") != 0:
        problems.append(f"batched and single answers differ: "
                        f"mismatches={data.get('mismatches')!r}")
    for record in data.get("records", []):
        for path in ("single", "batched"):
            errors = record[path]["errors"]
            if errors:
                problems.append(f"{record['endpoint']} {path} at "
                                f"{record['clients']} clients: {errors} errors")
    return problems


def _check_chaos(data: Dict[str, Any]) -> List[str]:
    problems = []
    for key in ("crash_points", "drop_curves", "e23_byzantine_points"):
        if not data.get(key):
            problems.append(f"chaos artifact missing/empty {key!r}")
    return problems


def _check_claims(data: Dict[str, Any]) -> List[str]:
    """The paper's claims, read off ``BENCH_claims.json``.

    Every record is sound, its max stretch is within its declared factor,
    and that factor within the registry's bound where one is declared.
    Theorem 1.2: at each n the factor does not rise and the rounds do not
    fall as t grows.  Theorem 1.1: rounds grow more slowly than n.
    """
    problems = _records_nonempty(data)
    tradeoff: Dict[int, List[Dict[str, Any]]] = {}
    theorem11: List[Dict[str, Any]] = []
    for record in data.get("records", []):
        label = f"{record['variant']} n={record['n']} {record['params']}"
        factor, bound = record["factor"], record["factor_bound"]
        if not record["sound"]:
            problems.append(f"{label}: under-estimates a distance")
        if record["max_stretch"] > factor + 1e-9:
            problems.append(
                f"{label}: max stretch {record['max_stretch']} > factor {factor}"
            )
        if bound is not None and factor > bound + 1e-9:
            problems.append(f"{label}: factor {factor} > declared bound {bound}")
        if "t" in record["params"]:
            tradeoff.setdefault(record["n"], []).append(record)
        if record["variant"] == "theorem11":
            theorem11.append(record)
    if not tradeoff:
        problems.append("no record with a t parameter (Theorem 1.2)")
    for n, rows in sorted(tradeoff.items()):
        rows.sort(key=lambda r: r["params"]["t"])
        for low, high in zip(rows, rows[1:]):
            pair = f"n={n} t={low['params']['t']}->{high['params']['t']}"
            if high["factor"] > low["factor"] + 1e-9:
                problems.append(f"tradeoff {pair}: factor rises with t")
            if high["rounds"] < low["rounds"]:
                problems.append(f"tradeoff {pair}: rounds fall with t")
    theorem11.sort(key=lambda r: r["n"])
    if len(theorem11) < 2:
        problems.append("theorem11 recorded at fewer than two sizes")
    else:
        first, last = theorem11[0], theorem11[-1]
        if last["rounds"] / first["rounds"] >= last["n"] / first["n"]:
            problems.append(
                f"theorem11 rounds grew {first['rounds']}->{last['rounds']} "
                f"while n grew {first['n']}->{last['n']}"
            )
    return problems


#: (bench module, artifact path, experiment tag, artifact gate).
SUITES: List[Tuple[str, str, str, Callable[[Dict[str, Any]], List[str]]]] = [
    ("bench_claims.py", "BENCH_claims.json", "E1-claims", _check_claims),
    ("bench_pipeline.py", "BENCH_pipeline.json", "E18-pipeline",
     _check_pipeline),
    ("bench_routing.py", "BENCH_routing.json", "E19-routing",
     _records_nonempty),
    ("bench_query.py", "BENCH_query.json", "E20-query", _records_nonempty),
    ("bench_serve.py", "BENCH_serve.json", "E21-serve", _check_serve),
    ("bench_chaos.py", "BENCH_chaos.json", "E22-chaos", _check_chaos),
]


#: Seconds one smoke suite may run before it counts as hung (the whole
#: smoke run takes about 30 s).
SUITE_TIMEOUT_S = 900


def run_suite(module: str, env: Dict[str, str]) -> List[str]:
    """Run one bench module under pytest; the failures, if any."""
    command = [
        sys.executable, "-m", "pytest",
        os.path.join("benchmarks", module), "-q", "--benchmark-disable",
    ]
    print(f"== {module}", flush=True)
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, timeout=SUITE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return [f"{module}: timed out after {SUITE_TIMEOUT_S} s"]
    return [] if completed.returncode == 0 else [f"{module}: pytest failed"]


def validate_artifact(
    artifact: str, tag: str, gate: Callable[[Dict[str, Any]], List[str]]
) -> List[str]:
    # conftest imports repro; main() puts src/ on the path first.
    from conftest import artifact_path

    path = artifact_path(artifact)
    if not os.path.exists(path):
        return [f"{artifact}: not written"]
    try:
        with open(path, "r", encoding="utf-8") as source:
            data = json.load(source)
    except (OSError, json.JSONDecodeError) as error:
        return [f"{artifact}: unreadable ({error})"]
    problems = []
    if data.get("experiment") != tag:
        problems.append(
            f"{artifact}: experiment tag {data.get('experiment')!r} != {tag!r}"
        )
    problems.extend(f"{artifact}: {p}" for p in _check_host(data) + gate(data))
    return problems


#: Path (relative to the repo root) of the lint-report artifact the
#: smoke run emits and validates alongside the BENCH_*.json planes.
LINT_ARTIFACT = "lint_report.json"


def run_lint(env: Dict[str, str]) -> bool:
    command = [
        sys.executable, "-m", "repro", "lint", "--root", ROOT,
        "--json", os.path.join(ROOT, LINT_ARTIFACT),
    ]
    print("== repro lint", flush=True)
    return subprocess.run(command, cwd=ROOT, env=env).returncode == 0


def validate_lint_artifact(path: str) -> List[str]:
    """Gate the ``repro lint --json`` report the same way BENCH artifacts
    are gated: it must exist, parse, come from repro-lint, and be clean."""
    if not os.path.exists(path):
        return [f"{path}: not written"]
    try:
        with open(path, "r", encoding="utf-8") as source:
            data = json.load(source)
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path}: unreadable ({error})"]
    problems = []
    if data.get("tool") != "repro-lint":
        problems.append(f"{path}: tool {data.get('tool')!r} != 'repro-lint'")
    if data.get("parse_errors"):
        problems.append(f"{path}: parse errors {data['parse_errors']!r}")
    for finding in data.get("findings", []):
        problems.append(
            f"{path}: finding {finding.get('rule')} at "
            f"{finding.get('path')}:{finding.get('line')}"
        )
    if data.get("clean") is not True and not problems:
        problems.append(f"{path}: clean flag is {data.get('clean')!r}")
    if not data.get("files_scanned"):
        problems.append(f"{path}: files_scanned is {data.get('files_scanned')!r}")
    if not data.get("rules"):
        problems.append(f"{path}: rules catalogue is empty")
    return problems


def main() -> int:
    os.environ["REPRO_BENCH_SMOKE"] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    failures: List[str] = []
    run_lint(env)  # exit code is reflected in the artifact's findings
    failures.extend(validate_lint_artifact(os.path.join(ROOT, LINT_ARTIFACT)))
    for module, artifact, tag, gate in SUITES:
        problems = run_suite(module, env)
        if problems:
            failures.extend(problems)
            continue
        failures.extend(validate_artifact(artifact, tag, gate))
    if failures:
        print("\nsmoke FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nsmoke OK: lint + {len(SUITES)} planes, artifacts validated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
