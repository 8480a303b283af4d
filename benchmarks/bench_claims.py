"""E1 — the paper's claims as one gated record (Theorems 1.1 and 1.2).

One pass over the variant registry: at each size every registered variant
solves the same Erdős–Rényi workload with the same seed, through
``conftest.run_registered``, so a newly registered variant is covered
without editing this module.  Per (variant, n) the record carries:

* the ledger rounds, in total and by phase;
* the declared factor and the registry's ``factor_bound`` (``None`` where
  the variant declares none);
* max and mean stretch, and soundness, against exact distances;
* what the variant reports of its schedule: Theorem 1.1's ``k0`` and
  ``hop_schedule`` (the k-nearest rounds follow the iteration count ``i``
  under the ``sqrt(n)`` clamp on ``k0``), and Theorem 1.2's ``t`` next to
  ``tradeoff_factor_bound(n, t)`` (``tradeoff_bound``).

A variant with a ``t`` parameter runs at every t in ``TRADEOFF_TS``.
``benchmarks/run_smoke.py``'s ``_check_claims`` gates the artifact, and
this module asserts the same gate.  ``findings`` states what the records
show about Theorem 1.2: at every recorded size, each t returns
Theorem 1.1's factor and round count, above the formula bound.

Smoke mode (``REPRO_BENCH_SMOKE=1``): every variant at ``SMOKE_SIZES``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List

from repro.analysis import emit, format_table
from repro.core.registry import VARIANTS
from repro.graphs import DEFAULT_ORACLE, check_estimate

from conftest import artifact_path, exact_for, host_fingerprint, run_registered, workload
from run_smoke import _check_claims

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
FAMILY = "er"
#: Full-run sizes per variant; a variant not named here runs at ``DEFAULT_SIZES``.
FULL_SIZES = {
    "theorem11": (1024, 2048, 4096, 8192),
    "tradeoff": (1024, 2048, 4096, 8192),
    "small-diameter": (1024, 2048),
    "large-bandwidth": (1024, 2048),
    "spanner-only": (1024, 2048),
    "exact": (1024,),
    "uy90": (1024,),
}
DEFAULT_SIZES = (1024,)
SMOKE_SIZES = (128, 512)
TRADEOFF_TS = (1, 2, 3, 4)
#: Solver metadata copied into the record when a variant reports it.
META_KEYS = ("k0", "hop_schedule", "t", "tradeoff_bound")


def sizes_for(name: str) -> tuple:
    return SMOKE_SIZES if SMOKE else FULL_SIZES.get(name, DEFAULT_SIZES)


def param_sets(spec) -> List[Dict[str, Any]]:
    if "t" in spec.required_params:
        return [{"t": t} for t in TRADEOFF_TS]
    return [{}]


def measure() -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    for n in sorted({n for spec in VARIANTS for n in sizes_for(spec.name)}):
        graph = workload(FAMILY, n)
        exact = exact_for(FAMILY, n)
        for spec in VARIANTS:
            if n not in sizes_for(spec.name):
                continue
            for params in param_sets(spec):
                start = time.perf_counter()
                result, ledger = run_registered(spec.name, graph, f"claims:{n}", **params)
                solve_s = time.perf_counter() - start
                report = check_estimate(exact, result.estimate)
                records.append({
                    "variant": spec.name,
                    "n": n,
                    "params": params,
                    "solve_s": solve_s,
                    "rounds": ledger.total_rounds,
                    "rounds_by_phase": ledger.rounds_by_phase(),
                    "factor": result.factor,
                    "factor_bound": spec.bound(n, **params),
                    "sound": report.sound,
                    "max_stretch": report.max_stretch,
                    "mean_stretch": report.mean_stretch,
                    **{k: result.meta[k] for k in META_KEYS if k in result.meta},
                })
                # An (n, n) matrix is 512 MB at n = 8192: drop each estimate
                # before the next solve, and the exact one before the next n.
                del result
        del exact
        DEFAULT_ORACLE.clear()
    return records


#: Why ``tradeoff`` can equal ``theorem11`` at every t (see ``findings``).
T_INERT_CAUSE = (
    "apsp_theorem11 hands t + 1 >= 2 to Lemma 8.2's round-limited per-scale "
    "solver, which runs the full Theorem 7.1 (cc3, factor 7) whenever "
    "t + 1 >= log2 log2 log2 of the scaled graph's size, i.e. on every "
    "skeleton below 2^16 nodes; each t then chains theorem11's inner "
    "factor 7 into 7^4 (1+eps)^2, above tradeoff_factor_bound(n, t)"
)


def findings(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Where Theorem 1.2's ``t`` changes nothing against Theorem 1.1."""
    base = {r["n"]: (r["factor"], r["rounds"]) for r in records if r["variant"] == "theorem11"}
    tradeoff = [r for r in records if "tradeoff_bound" in r]
    inert = [
        n for n in sorted({r["n"] for r in tradeoff})
        if all((r["factor"], r["rounds"]) == base.get(n) for r in tradeoff if r["n"] == n)
    ]
    return {
        "tradeoff_equals_theorem11_at": inert,
        "tradeoff_above_formula_bound": [
            [r["n"], r["t"]] for r in tradeoff if r["factor"] > r["tradeoff_bound"]
        ],
        "cause": T_INERT_CAUSE if inert else None,
    }


def test_claims_record(results_sink):
    records = measure()
    payload = {
        "experiment": "E1-claims",
        "smoke": SMOKE,
        "family": FAMILY,
        "host": host_fingerprint(),
        "records": records,
        "findings": findings(records),
    }
    with open(artifact_path("BENCH_claims.json"), "w", encoding="utf-8") as sink:
        json.dump(payload, sink, indent=2)

    rows = [
        (
            r["variant"], r["n"], r.get("t", "-"), r["rounds"],
            round(r["factor"], 1),
            "-" if r["factor_bound"] is None else round(r["factor_bound"], 1),
            round(r["max_stretch"], 3), round(r["mean_stretch"], 3),
            r.get("hop_schedule", "-"),
        )
        for r in records
    ]
    emit(
        format_table(
            ["variant", "n", "t", "rounds", "factor", "bound", "max stretch",
             "mean stretch", "(h, i)"],
            rows,
            title="E1 — the paper's claims over the registry (sound, within "
            "factor and bound; Theorem 1.2 monotone in t; rounds sub-linear in n)",
        ),
        sink_path=results_sink,
    )
    assert _check_claims(payload) == []
