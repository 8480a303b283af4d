"""E20 — the distance-oracle query plane: batch routing vs per-call loops.

Two measurements on the serving artifact (:mod:`repro.serve`):

* **Equivalence** — on seeded instances the batch router must deliver
  *identical* routes to the (fixed) per-call
  :func:`repro.core.routing_tables.greedy_route`: same delivered flags,
  same per-packet float lengths (same accumulation order), same hop
  counts, same node sequences.  The vectorized next-hop table is likewise
  pinned to its per-node reference.

* **Speedup** — the batch router advances all in-flight packets one hop
  per numpy step; the acceptance bar is a >= 10x wall-clock win over the
  per-call loop at n = 512 (both on a prebuilt table — this measures the
  routing loop, not table construction), recorded in ``BENCH_query.json``
  together with the next-hop build speedup.

Smoke mode: ``REPRO_BENCH_SMOKE=1`` restricts the sweep to small sizes —
the CI configuration, where only equivalence (not the speedup ratio,
which needs the large sizes and a quiet machine) is asserted.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import numpy as np
import pytest

from repro.analysis import emit, format_table
from repro.core.routing_tables import (
    greedy_route,
    next_hop_table_reference,
)
from repro.graphs import cached_exact_apsp, erdos_renyi
from repro.serve import DistanceOracle, route_batch

from conftest import artifact_path, host_fingerprint, rng_for

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
SIZES = (32, 64) if SMOKE else (64, 128, 256, 512)


def workload(n: int):
    """One seeded graph + an estimate with routing-relevant error.

    The estimate is the exact matrix with multiplicative per-entry noise:
    deterministic, cheap at every size, and rough enough that greedy
    forwarding exhibits loops (the interesting failure mode for the
    equivalence check).
    """
    rng = rng_for(f"e20:{n}")
    graph = erdos_renyi(n, min(1.0, 8.0 / n), rng)
    exact = cached_exact_apsp(graph)
    noise = 1.0 + 0.5 * rng.random((n, n))
    estimate = exact * noise
    np.fill_diagonal(estimate, 0.0)
    return graph, estimate


def sample_pairs(n: int, count: int):
    rng = rng_for(f"e20:pairs:{n}")
    return rng.integers(0, n, size=count), rng.integers(0, n, size=count)


def measure() -> List[Dict]:
    """Per size: equivalence plus wall-clock for both routing paths."""
    records: List[Dict] = []
    for n in SIZES:
        graph, estimate = workload(n)
        queries = 4 * n

        start = time.perf_counter()
        reference_table = next_hop_table_reference(graph, estimate)
        table_reference_seconds = time.perf_counter() - start

        start = time.perf_counter()
        oracle = DistanceOracle.build(graph, estimate)
        build_seconds = time.perf_counter() - start
        assert np.array_equal(oracle.next_hop, reference_table), n

        sources, targets = sample_pairs(n, queries)

        start = time.perf_counter()
        scalar = [
            greedy_route(graph, estimate, int(s), int(t), table=oracle.next_hop)
            for s, t in zip(sources, targets)
        ]
        scalar_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batch = route_batch(oracle, sources, targets, record_paths=True)
        batch_seconds = time.perf_counter() - start

        mismatches = sum(
            1
            for i, route in enumerate(scalar)
            if route.delivered != bool(batch.delivered[i])
            or route.length != batch.lengths[i]
            or route.hops != int(batch.hops[i])
            or route.path != batch.path(i)
        )

        records.append(
            {
                "n": n,
                "queries": queries,
                "mismatches": mismatches,
                "delivered": int(batch.delivered.sum()),
                "loops": batch.outcome_counts()["loop"],
                "scalar_seconds": scalar_seconds,
                "batch_seconds": batch_seconds,
                "batch_speedup": scalar_seconds / batch_seconds,
                "table_reference_seconds": table_reference_seconds,
                "table_build_seconds": build_seconds,
                "table_speedup": table_reference_seconds / build_seconds,
            }
        )
    return records


@pytest.fixture(scope="module")
def query_records() -> List[Dict]:
    return measure()


def test_batch_router_identical_and_fast(query_records, results_sink, benchmark):
    """E20: batch routes == per-call routes; the batch plane is the fast one."""
    for record in query_records:
        assert record["mismatches"] == 0, record

    rows = [
        (
            r["n"],
            r["queries"],
            f"{r['delivered']}/{r['queries']}",
            f"{r['scalar_seconds'] * 1e3:.0f}",
            f"{r['batch_seconds'] * 1e3:.1f}",
            f"{r['batch_speedup']:.1f}x",
            f"{r['table_speedup']:.1f}x",
        )
        for r in query_records
    ]
    table = format_table(
        ["n", "queries", "delivered", "per-call ms", "batch ms",
         "router speedup", "table speedup"],
        rows,
        title="E20 — oracle query plane: batched greedy routing vs per-call "
        "loop (claim: identical routes, >= 10x at n=512)",
    )
    emit(table, sink_path=results_sink)

    payload = {
        "experiment": "E20-query",
        "sizes": list(SIZES),
        "smoke": SMOKE,
        "host": host_fingerprint(),
        "records": query_records,
    }
    with open(artifact_path("BENCH_query.json"), "w", encoding="utf-8") as sink:
        json.dump(payload, sink, indent=2)

    n = SIZES[-1]
    graph, estimate = workload(n)
    oracle = DistanceOracle.build(graph, estimate)
    sources, targets = sample_pairs(n, 4 * n)
    benchmark.pedantic(
        lambda: route_batch(oracle, sources, targets), rounds=1, iterations=1
    )


@pytest.mark.skipif(SMOKE, reason="speedup ratio needs the n=512 measurement")
def test_batch_router_at_least_10x_at_512(query_records):
    """Acceptance: >= 10x wall-clock over per-call greedy_route at n=512."""
    record = next(r for r in query_records if r["n"] == 512)
    assert record["batch_speedup"] >= 10.0, (
        f"batch router only {record['batch_speedup']:.1f}x over per-call "
        f"greedy_route at n=512"
    )


def test_oracle_persistence_round_trip(results_sink):
    """The serving artifact reloads bit-identically at benchmark sizes."""
    n = SIZES[0]
    graph, estimate = workload(n)
    oracle = DistanceOracle.build(graph, estimate)
    clone = DistanceOracle.from_json(oracle.to_json())
    assert np.array_equal(clone.estimate, oracle.estimate)
    assert np.array_equal(clone.next_hop, oracle.next_hop)
    assert np.array_equal(clone.hop_weight, oracle.hop_weight)
    assert clone.content_key() == oracle.content_key()
