#!/usr/bin/env python
"""Quickstart: the unified solver facade, end to end.

Builds a small batch of random weighted graphs, solves them concurrently
with :class:`repro.ApspSolver` (the paper's headline Theorem 1.1
algorithm), and reports per graph:

* the guaranteed approximation factor (7^4 + eps — loose by design),
* the *measured* stretch certificate (typically < 5),
* the Congested Clique round count and the wall-clock time,

then shows the JSON payload a downstream service would consume, and the
legacy one-call API for comparison.

Run:  python examples/quickstart.py [n]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import (
    ApspSolver,
    SolverConfig,
    approximate_apsp,
    erdos_renyi,
)


def main(n: int = 96) -> None:
    graph_rng = np.random.default_rng(2024)
    graphs = [erdos_renyi(n, 8.0 / n, graph_rng) for _ in range(3)]
    print(f"inputs: {graphs}")

    # One config, any number of graphs.  validation="stretch" attaches a
    # measured-stretch certificate (computed against exact distances).
    config = SolverConfig(variant="theorem11", seed=0, validation="stretch")
    solver = ApspSolver(config)
    results = solver.solve_many(graphs)  # concurrent, deterministic per seed

    print(f"\nvariant: {config.variant}  ({config.spec.summary})")
    print("graph  factor  measured  rounds  wall[s]")
    for i, result in enumerate(results):
        print(
            f"  g{i}   {result.factor:7.1f} "
            f"{result.stretch.max_stretch:9.3f} "
            f"{result.total_rounds:7d} {result.wall_time_s:8.3f}"
        )

    # Round breakdown for the first graph, phase by phase.
    print("\nrounds by phase (g0):")
    for phase, rounds in sorted(results[0].ledger.rounds_by_phase().items()):
        print(f"  {phase:<45} {rounds:>5}")

    # Results serialize for downstream services (inf encoded as null);
    # ``summary()`` drops the O(n^2) matrix, ``to_json()`` keeps it.
    summary = results[0].summary()
    print(f"\nJSON summary keys : {sorted(summary)}")
    print(f"serialized size   : {len(results[0].to_json())} bytes")

    # For large matrices, request the base64 matrix encoding — a constant
    # ~10.7 characters per float64 entry (vs ~18 for full-precision floats
    # in the list encoding) and an order of magnitude faster to encode;
    # from_json understands both.
    compact = results[0].to_json(matrix_encoding="b64")
    print(f"b64-encoded size  : {len(compact)} bytes "
          f"(wins at n >= 512, where entries are full-precision floats)")

    # The ledger rounds above are *charges*; the communication plane can
    # also witness a schedule for real.  Run a protocol end-to-end on the
    # array-native simulator: a full-load Lenzen routing instance (every
    # node sends and receives exactly n messages) followed by the
    # message-level hopset protocol on the first graph.
    from repro import MessageBatch
    from repro.cclique import route_batch_two_phase
    from repro.graphs import exact_apsp
    from repro.protocols import run_hopset_protocol

    rng = np.random.default_rng(7)
    perms = np.stack([rng.permutation(n) for _ in range(n)])
    batch = MessageBatch(
        src=np.tile(np.arange(n, dtype=np.int64), n),
        dst=perms.reshape(-1),
        payload=np.tile(np.arange(n, dtype=np.float64), n).reshape(-1, 1),
    )
    _, stats = route_batch_two_phase(batch, n)
    print(f"\nsimulator: routed {stats.messages} full-load messages in "
          f"{stats.rounds} rounds ({stats.spill_rounds} caused by spill)")
    protocol = run_hopset_protocol(graphs[0], exact_apsp(graphs[0]))
    print(f"simulator: hopset protocol shipped 3 routed instances in "
          f"{protocol.rounds} rounds, hopset has "
          f"{protocol.hopset.num_edges} edges")

    # The query plane (repro.serve): precompute a distance oracle from a
    # result and serve batched queries / greedy routes from the artifact —
    # the "network routing" product surface the paper motivates.
    from repro.serve import route_batch

    oracle = results[0].oracle(graphs[0])
    qrng = np.random.default_rng(11)
    sources = qrng.integers(0, n, size=256)
    targets = qrng.integers(0, n, size=256)
    dists = oracle.query_many(sources, targets)
    routes = route_batch(oracle, sources, targets)
    print(f"\noracle: {dists.size} distance queries in one gather; batch "
          f"router delivered {int(routes.delivered.sum())}/{routes.size} "
          f"packets ({routes.outcome_counts()})")
    ids, _ = oracle.k_nearest(3, sources=[0])
    print(f"oracle: 3 nearest of node 0 by estimate: {ids[0].tolist()}")
    clone = type(oracle).from_json(oracle.to_json())  # b64-compact artifact
    assert np.array_equal(clone.estimate, oracle.estimate)
    assert np.array_equal(clone.next_hop, oracle.next_hop)
    print(f"oracle: persisted + reloaded bit-identically "
          f"({len(oracle.to_json())} bytes)")

    # Back-compat path: the legacy one-call API, equivalent to stream 0 of
    # the batch above when given the same RNG stream.
    legacy = approximate_apsp(graphs[0], rng=config.rng_for(0))
    assert np.array_equal(legacy.estimate, results[0].estimate)
    print(f"\nlegacy approximate_apsp matches the facade: factor "
          f"{legacy.factor:.1f}, {legacy.meta['ledger'].total_rounds} rounds")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 96
    main(size)
