#!/usr/bin/env python
"""Quickstart for the async oracle-serving tier (``repro.serve``).

Pattern: build/solve ONCE per (graph, variant, seed) — ``warm`` hands
back a graph-hash-addressed handle — then answer many concurrent point
queries through :class:`~repro.serve.OracleService`. Requests that
arrive in the same event-loop tick are coalesced by the
:class:`~repro.serve.MicroBatcher` into single vectorized engine calls
(``query_many`` / ``route_batch``), bit-identical to asking one at a
time, just much faster under load.

Run:  python examples/oracle_service.py [n]
"""

from __future__ import annotations

import asyncio
import sys

import numpy as np

from repro.graphs import erdos_renyi
from repro.serve import OracleService, ServiceConfig, run_closed_loop


async def demo(service: OracleService, handle: str, n: int) -> None:
    rng = np.random.default_rng(7)

    # Point queries are coroutines; concurrent ones share a batch.
    d = await service.distance(handle, 0, n - 1)
    print(f"distance(0, {n - 1}) = {d:.3f}")

    hop = await service.route(handle, 0, n - 1)
    print(f"route(0, {n - 1})    = {hop['hops']} hops, "
          f"length {hop['length']:.3f}, {hop['status']}")

    near = await service.k_nearest(handle, 0, 5)
    print(f"k_nearest(0, k=5)  = nodes {near['ids']}")

    # Fan-out: 200 concurrent distance queries — the batcher coalesces
    # them into a handful of vectorized gathers.
    pairs = rng.integers(0, n, size=(200, 2))
    answers = await asyncio.gather(
        *(service.distance(handle, int(s), int(t)) for s, t in pairs)
    )
    print(f"fan-out            = {len(answers)} answers, "
          f"mean {float(np.mean(answers)):.3f}")

    # A measured closed-loop drive (32 clients, one request in flight
    # each) — the same machinery `repro serve-bench` and E21 use.
    async def request(i: int) -> float:
        s, t = pairs[i % len(pairs)]
        return await service.distance(handle, int(s), int(t))

    report = await run_closed_loop(request, requests=400, concurrency=32)
    stats = report.snapshot()
    print(f"closed-loop        = {stats['qps']:.0f} qps, "
          f"p50 {stats['latency']['p50'] * 1e3:.2f} ms, "
          f"p99 {stats['latency']['p99'] * 1e3:.2f} ms")


def main(n: int = 96) -> None:
    rng = np.random.default_rng(3)
    graph = erdos_renyi(n, min(1.0, 8.0 / n), rng)

    with OracleService(ServiceConfig(max_batch=64)) as svc:
        # warm() solves the workload once and registers the oracle under
        # a deterministic graph-hash handle; warming the same inputs
        # again is a store hit (no re-solve — single-flight even under
        # concurrent warms).
        handle = svc.warm(graph, variant="small-diameter", seed=7)
        print(f"warmed handle      = {handle[:24]}...")
        again = svc.warm(graph, variant="small-diameter", seed=7)
        assert again == handle

        asyncio.run(demo(svc, handle, n))

        snap = svc.snapshot()
        store = snap["tenants"]["default"]
        batch = snap["metrics"]["batching"]["distance"]
        print(f"store              = {store['builds']} build(s), "
              f"{store['hits']} hits / {store['misses']} misses")
        print(f"batching           = {batch['items']} items in "
              f"{batch['batches']} flushes "
              f"(mean {batch['mean_batch']:.1f}/flush)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 96)
