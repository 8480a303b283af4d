#!/usr/bin/env python
"""One-command benchmark smoke runner (the CI entry point).

Runs every benchmark plane in ``REPRO_BENCH_SMOKE=1`` mode, then
validates the ``BENCH_*.json`` artifact each one emits — existence, the
expected experiment tag, and the plane's own gate (non-empty records,
bit-identity flags, chaos curves present).  Any pytest failure or
artifact regression makes the runner exit non-zero, so one CI step
covers every plane.

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


def _check_pipeline(data: Dict[str, Any]) -> List[str]:
    problems = _records_nonempty(data)
    construction = data.get("construction", [])
    if not construction:
        problems.append("construction list is empty")
    for record in construction:
        if record.get("identical_to_reference") is False:
            problems.append(f"construction not bit-identical: {record}")
    return problems


def _check_chaos(data: Dict[str, Any]) -> List[str]:
    problems = []
    for key in ("crash_points", "drop_curves", "e23_byzantine_points"):
        if not data.get(key):
            problems.append(f"chaos artifact missing/empty {key!r}")
    return problems


#: (bench module, artifact path, experiment tag, artifact gate).
SUITES: List[Tuple[str, str, str, Callable[[Dict[str, Any]], List[str]]]] = [
    ("bench_pipeline.py", "BENCH_pipeline.json", "E18-pipeline",
     _check_pipeline),
    ("bench_routing.py", "BENCH_routing.json", "E19-routing",
     _records_nonempty),
    ("bench_query.py", "BENCH_query.json", "E20-query", _records_nonempty),
    ("bench_serve.py", "BENCH_serve.json", "E21-serve", _records_nonempty),
    ("bench_chaos.py", "BENCH_chaos.json", "E22-chaos", _check_chaos),
]


def run_suite(module: str, env: Dict[str, str]) -> bool:
    command = [
        sys.executable, "-m", "pytest",
        os.path.join("benchmarks", module), "-q", "--benchmark-disable",
    ]
    print(f"== {module}", flush=True)
    return subprocess.run(command, cwd=ROOT, env=env).returncode == 0


def validate_artifact(
    artifact: str, tag: str, gate: Callable[[Dict[str, Any]], List[str]]
) -> List[str]:
    path = os.path.join(ROOT, artifact)
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
    problems.extend(f"{artifact}: {p}" for p in gate(data))
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
    env = dict(os.environ)
    env["REPRO_BENCH_SMOKE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    failures: List[str] = []
    run_lint(env)  # exit code is reflected in the artifact's findings
    failures.extend(validate_lint_artifact(os.path.join(ROOT, LINT_ARTIFACT)))
    for module, artifact, tag, gate in SUITES:
        if not run_suite(module, env):
            failures.append(f"{module}: pytest failed")
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
