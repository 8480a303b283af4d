"""The distance-oracle query plane: precompute once, serve many queries.

The solve-side planes (facade, kernels, construction, communication)
produce an :class:`~repro.api.ApspResult`; this package is the *query*
side the paper's routing motivation actually exercises:

* :class:`DistanceOracle` — the serving artifact (estimate matrix,
  vectorized next-hop table, per-hop edge weights, provenance metadata)
  with compact content-hash-keyed persistence;
* :class:`OracleStore` — a thread-safe LRU of built oracles, keyed the
  same way as the exact-distance cache;
* :func:`route_batch` — the batch greedy router: every in-flight packet
  advances one hop per numpy step (differentially tested against the
  per-call :func:`repro.core.routing_tables.greedy_route`);
* :func:`audit_stretch` — vectorized delivery/stretch sampling that
  subsumes :func:`repro.core.routing_tables.routing_quality`;
* ``DistanceOracle.query_many`` / ``DistanceOracle.k_nearest`` — bulk
  distance and nearest-neighbour queries;
* :class:`OracleService` — the async serving tier on top: per-tenant
  stores, graph-hash-addressed warm-up, a :class:`MicroBatcher` per
  ``(tenant, oracle, endpoint)`` coalescing awaited point queries into
  the vectorized calls above (a batch flushes on the event loop when
  full or at the end of the loop tick, with no timer), and a
  :class:`ServiceMetrics` plane with streaming latency quantiles (see
  :mod:`repro.serve.service`).

Typical use::

    result = ApspSolver(SolverConfig(variant="theorem11")).solve(graph)
    oracle = result.oracle(graph)            # or DEFAULT_STORE.get_or_build
    dists = oracle.query_many(sources, targets)
    routes = route_batch(oracle, sources, targets, record_paths=True)
    oracle.save("oracle.json")               # b64-compact, bit-exact reload

Serving tier::

    with OracleService() as service:
        handle = service.warm(graph, variant="theorem11", seed=0)
        async def query():
            return await service.distance(handle, 0, 9)
        print(asyncio.run(query()), service.snapshot()["metrics"])
"""

from .batching import BatcherStats, MicroBatcher
from .engine import (
    STATUS_BUDGET,
    STATUS_DEAD_END,
    STATUS_DELIVERED,
    STATUS_LOOP,
    STATUS_NAMES,
    BatchRoutes,
    StretchAudit,
    audit_stretch,
    route_batch,
)
from .metrics import LatencyReservoir, ServiceMetrics
from .oracle import (
    ORACLE_FORMAT,
    ORACLE_VERSION,
    ArtifactIntegrityError,
    DistanceOracle,
)
from .service import (
    ENDPOINTS,
    AdmissionError,
    LoadReport,
    OracleService,
    ServiceConfig,
    oracle_handle,
    run_closed_loop,
    run_open_loop,
)
from .store import DEFAULT_STORE, OracleStore, estimate_digest, oracle_key

__all__ = [
    "AdmissionError",
    "ArtifactIntegrityError",
    "BatcherStats",
    "BatchRoutes",
    "DEFAULT_STORE",
    "DistanceOracle",
    "ENDPOINTS",
    "LatencyReservoir",
    "LoadReport",
    "MicroBatcher",
    "ORACLE_FORMAT",
    "ORACLE_VERSION",
    "OracleService",
    "OracleStore",
    "ServiceConfig",
    "ServiceMetrics",
    "StretchAudit",
    "STATUS_BUDGET",
    "STATUS_DEAD_END",
    "STATUS_DELIVERED",
    "STATUS_LOOP",
    "STATUS_NAMES",
    "audit_stretch",
    "estimate_digest",
    "oracle_handle",
    "oracle_key",
    "route_batch",
    "run_closed_loop",
    "run_open_loop",
]
