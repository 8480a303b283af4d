"""The async oracle-serving tier: front-end, tenants, warm-up, load.

PR 5 built the query plane — :class:`~repro.serve.DistanceOracle`
artifacts answering vectorized batches — but every caller still hit the
store synchronously, one query at a time.  :class:`OracleService` is
the concurrency story on top:

* **request front-end** — ``await service.distance/route/k_nearest``;
  each endpoint rides a per-``(tenant, oracle, endpoint)``
  :class:`~repro.serve.batching.MicroBatcher`, so point queries that
  arrive in one loop tick coalesce into a single ``query_many`` /
  ``route_batch`` / ``k_smallest_in_rows`` call.
  Results are bit-identical to the single-query path (the per-item
  semantics of every engine call are independent of batch membership) —
  ``benchmarks/bench_serve.py`` (E21) asserts exactly that;
* **execution backend** — batched flushes run on the event-loop
  thread, one engine call at a time, each bounded by ``max_batch``
  (the engine calls hold the GIL, so a pool thread could not overlap
  them with the loop, and a pool round trip costs more than most of
  them); ``batched=False`` requests go one by one to a thread-pool
  executor;
* **per-tenant stores** — each tenant gets its own bounded
  :class:`~repro.serve.store.OracleStore` (admission capped at
  ``max_tenants``; eviction/build accounting via ``store.stats()``);
* **graph-hash-addressed warm-up** — ``service.warm(graph, variant,
  seed)`` pre-builds through single-flight ``get_or_build`` and returns
  a *handle* (``graph_hash:variant:seed[:t]``) that later requests —
  and later processes holding only the handle string — resolve without
  re-solving;
* **metrics** — a :class:`~repro.serve.metrics.ServiceMetrics` plane;
  :meth:`OracleService.snapshot` is JSON-round-trippable.

The module also hosts the synthetic load generators
(:func:`run_closed_loop`, :func:`run_open_loop`) driving
``python -m repro serve-bench`` and E21.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.results import Estimate
from ..graphs.distances import graph_content_hash
from ..graphs.graph import WeightedGraph
from .batching import MicroBatcher
from .engine import route_batch
from .metrics import ServiceMetrics, quantile
from .oracle import DistanceOracle
from .store import OracleStore

#: The point-query endpoints the front-end serves.
ENDPOINTS = ("distance", "route", "k_nearest")


class AdmissionError(RuntimeError):
    """A tenant was refused admission (``max_tenants`` reached)."""


def oracle_handle(
    graph: WeightedGraph,
    variant: str,
    seed: int,
    t: Optional[int] = None,
) -> str:
    """The graph-hash-addressed name of one warmed oracle.

    Deterministic in the *request* (graph content, variant, seed,
    tradeoff parameter), not the artifact — which is what lets a caller
    who never saw the solve address the oracle it produced.
    """
    handle = f"{graph_content_hash(graph)}:{variant}:seed={int(seed)}"
    if t is not None:
        handle += f":t={int(t)}"
    return handle


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one :class:`OracleService` (all bounds are per tenant).

    ``max_batch`` caps one micro-batch (smaller batches flush at the
    end of the loop tick) and so bounds how long one engine call holds
    the event loop;
    ``max_workers`` sizes the thread pool that serves only
    ``batched=False`` requests; ``max_tenants``
    caps admission; ``store_max_entries`` / ``store_max_bytes`` bound
    each tenant's oracle store.

    ``request_timeout_s`` bounds each ``batched=False`` attempt, the
    pool path (None = wait forever, the pre-robustness behaviour); a
    timed-out attempt is retried up to ``max_retries`` times with
    jittered exponential backoff starting at ``retry_backoff_ms``.
    Timeouts and retries are surfaced as the ``timeouts`` / ``retries``
    service counters.  A batched attempt is never cut off: its flush
    runs synchronously on the event loop, queued in the tick that
    submitted it and so ahead of any timeout, and it answers however
    long the engine call takes.

    ``retry_jitter_seed`` seeds the backoff-jitter RNG; ``None`` (the
    default) derives it from ``metrics_seed``, so replays stay
    deterministic without coupling the backoff schedule to the metrics
    reservoir when a caller wants to vary them independently.
    """

    max_batch: int = 64
    max_workers: int = 4
    max_tenants: int = 8
    store_max_entries: int = 8
    store_max_bytes: int = 512 * 2**20
    reservoir_capacity: int = 4096
    metrics_seed: int = 0
    request_timeout_s: Optional[float] = None
    max_retries: int = 0
    retry_backoff_ms: float = 5.0
    retry_jitter_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.max_tenants < 1:
            raise ValueError("max_tenants must be >= 1")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0 (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_ms < 0:
            raise ValueError("retry_backoff_ms must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_batch": self.max_batch,
            "max_workers": self.max_workers,
            "max_tenants": self.max_tenants,
            "store_max_entries": self.store_max_entries,
            "store_max_bytes": self.store_max_bytes,
            "reservoir_capacity": self.reservoir_capacity,
            "metrics_seed": self.metrics_seed,
            "request_timeout_s": self.request_timeout_s,
            "max_retries": self.max_retries,
            "retry_backoff_ms": self.retry_backoff_ms,
            "retry_jitter_seed": self.retry_jitter_seed,
        }


class OracleService:
    """Async micro-batched front-end over per-tenant oracle stores.

    Lifecycle: construct, ``warm`` the oracles the workload needs
    (blocking — do it before opening the floodgates), serve with the
    async endpoints from one running event loop, then ``close()`` (or
    use the service as a context manager).  ``batched=False`` on any
    endpoint bypasses the coalescer — the PR-5 status quo, kept as the
    benchmark's control arm.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics(
            reservoir_capacity=self.config.reservoir_capacity,
            seed=self.config.metrics_seed,
        )
        self._stores: Dict[str, OracleStore] = {}
        self._batchers: Dict[Tuple[str, str, str], MicroBatcher] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="repro-serve",
        )
        self._admission_lock = threading.Lock()
        self._closed = False
        # Deterministic jitter source for retry backoff (event-loop
        # thread only); seeded so load tests replay identically.
        jitter_seed = self.config.retry_jitter_seed
        if jitter_seed is None:
            jitter_seed = self.config.metrics_seed
        self._jitter = random.Random(jitter_seed)
        # Pre-seed the robustness counters so snapshots always carry
        # them, even on services that never time out.
        self.metrics.bump("timeouts", 0)
        self.metrics.bump("retries", 0)

    # ------------------------------------------------------------------ #
    # Tenancy and warm-up
    # ------------------------------------------------------------------ #

    def store(self, tenant: str = "default") -> OracleStore:
        """The tenant's oracle store, admitting it on first contact."""
        tenant = str(tenant)
        with self._admission_lock:
            store = self._stores.get(tenant)
            if store is None:
                if len(self._stores) >= self.config.max_tenants:
                    self.metrics.bump("tenants_rejected")
                    raise AdmissionError(
                        f"tenant {tenant!r} refused: "
                        f"{self.config.max_tenants} tenants already admitted"
                    )
                store = OracleStore(
                    max_entries=self.config.store_max_entries,
                    max_bytes=self.config.store_max_bytes,
                )
                self._stores[tenant] = store
                self.metrics.bump("tenants_admitted")
            return store

    def warm(
        self,
        graph: WeightedGraph,
        variant: str = "theorem11",
        seed: int = 0,
        t: Optional[int] = None,
        tenant: str = "default",
        result: Optional[Estimate] = None,
    ) -> str:
        """Pre-build the oracle for ``(graph, variant, seed)``; returns its handle.

        Solves the instance (unless ``result`` — an
        :class:`~repro.api.ApspResult` or any estimate — is supplied)
        and builds the serving artifact through the store's single-flight
        ``get_or_build``, registering the graph-hash-addressed handle as
        its alias.  Re-warming an already-resident oracle is a store hit
        and skips both the solve and the build.  Blocking by design:
        warm before serving.
        """
        handle = oracle_handle(graph, variant, seed, t)
        store = self.store(tenant)
        start = time.perf_counter()
        if store.lookup(handle) is not None:
            self.metrics.bump("warm_hits")
            return handle
        if result is None:
            from ..api import ApspSolver, SolverConfig  # api layers below serve

            result = ApspSolver(
                SolverConfig(variant=variant, seed=seed, t=t)
            ).solve(graph)
        store.get_or_build(graph, result, variant=variant, alias=handle)
        self.metrics.bump("warms")
        self.metrics.record_request(
            "warm", time.perf_counter() - start, batched=False
        )
        return handle

    def oracle(self, handle: str, tenant: str = "default") -> DistanceOracle:
        """Resolve a warmed handle; raises ``KeyError`` if absent/evicted."""
        oracle = self.store(tenant).lookup(handle)
        if oracle is None:
            raise KeyError(
                f"no warmed oracle {handle!r} for tenant {tenant!r} "
                "(never warmed, or evicted — call warm() again)"
            )
        return oracle

    # ------------------------------------------------------------------ #
    # Async endpoints
    # ------------------------------------------------------------------ #

    async def distance(
        self,
        handle: str,
        source: int,
        target: int,
        tenant: str = "default",
        batched: bool = True,
    ) -> float:
        """Estimated distance for one pair."""
        return await self._request(
            "distance", tenant, handle, (int(source), int(target)), batched
        )

    async def route(
        self,
        handle: str,
        source: int,
        target: int,
        tenant: str = "default",
        batched: bool = True,
    ) -> Dict[str, Any]:
        """Greedy-route one packet; returns its JSON-safe record.

        The whole batch shares the engine's default hop budget (``2 n``)
        so coalesced packets stay bit-identical to solo ones.
        """
        return await self._request(
            "route", tenant, handle, (int(source), int(target)), batched
        )

    async def k_nearest(
        self,
        handle: str,
        node: int,
        k: int,
        tenant: str = "default",
        batched: bool = True,
    ) -> Dict[str, List]:
        """The ``k`` nearest nodes of ``node`` by estimated distance."""
        return await self._request(
            "k_nearest", tenant, handle, (int(node), int(k)), batched
        )

    async def _request(
        self,
        endpoint: str,
        tenant: str,
        handle: str,
        payload: Tuple,
        batched: bool,
    ) -> Any:
        if self._closed:
            raise RuntimeError("service is closed")
        start = time.perf_counter()
        try:
            result = await self._request_with_retries(
                endpoint, tenant, handle, payload, batched
            )
        except Exception:
            self.metrics.record_request(
                endpoint, time.perf_counter() - start, batched, error=True
            )
            raise
        self.metrics.record_request(
            endpoint, time.perf_counter() - start, batched
        )
        return result

    async def _request_with_retries(
        self,
        endpoint: str,
        tenant: str,
        handle: str,
        payload: Tuple,
        batched: bool,
    ) -> Any:
        """One endpoint call under the configured timeout/retry policy.

        ``request_timeout_s`` can only fire on ``batched=False`` calls,
        which wait on the thread pool.  A batched call's flush runs on
        the event loop itself, queued ahead of the timeout, so the call
        returns its answer however long the engine took.

        Only *timeouts* are retried — a ``KeyError`` (evicted oracle) or
        any backend exception is a real answer and re-raising it
        immediately beats hammering a failing store.  The final timeout
        propagates as ``asyncio.TimeoutError`` after ``max_retries``
        re-attempts, each preceded by jittered exponential backoff.
        """
        timeout = self.config.request_timeout_s
        attempt = 0
        while True:
            call = self._dispatch(endpoint, tenant, handle, payload, batched)
            try:
                if timeout is None:
                    return await call
                return await asyncio.wait_for(call, timeout)
            except asyncio.TimeoutError:
                self.metrics.bump("timeouts")
                if attempt >= self.config.max_retries:
                    raise
                attempt += 1
                self.metrics.bump("retries")
                base = self.config.retry_backoff_ms / 1000.0
                delay = base * (2 ** (attempt - 1))
                delay *= 0.5 + self._jitter.random()  # jitter in [0.5, 1.5)
                if delay > 0:
                    await asyncio.sleep(delay)

    async def _dispatch(
        self,
        endpoint: str,
        tenant: str,
        handle: str,
        payload: Tuple,
        batched: bool,
    ) -> Any:
        """One attempt: through the coalescer (on the loop) or to the pool."""
        if batched:
            return await self._batcher(endpoint, tenant, handle).submit(
                payload
            )
        loop = asyncio.get_running_loop()
        results = await loop.run_in_executor(
            self._executor,
            self._execute,
            endpoint,
            tenant,
            handle,
            [payload],
        )
        return results[0]

    def _batcher(
        self, endpoint: str, tenant: str, handle: str
    ) -> MicroBatcher:
        key = (endpoint, tenant, handle)
        batcher = self._batchers.get(key)
        if batcher is None:
            batcher = MicroBatcher(
                partial(self._execute, endpoint, tenant, handle),
                max_batch=self.config.max_batch,
                on_flush=partial(self.metrics.record_batch, endpoint),
            )
            self._batchers[key] = batcher
        return batcher

    # ------------------------------------------------------------------ #
    # Vectorized execution (loop thread when batched, pool when not)
    # ------------------------------------------------------------------ #

    def _execute(
        self, endpoint: str, tenant: str, handle: str, payloads: List[Tuple]
    ) -> List[Any]:
        """One vectorized engine call for a whole flush window.

        The oracle is resolved per *flush*, not per request — one store
        hit (and one LRU touch) per batch, and an eviction mid-serving
        surfaces as a ``KeyError`` on the next flush rather than stale
        answers from a pinned reference.
        """
        oracle = self.oracle(handle, tenant)
        if endpoint == "distance":
            sources = np.array([p[0] for p in payloads], dtype=np.int64)
            targets = np.array([p[1] for p in payloads], dtype=np.int64)
            return oracle.query_many(sources, targets).tolist()
        if endpoint == "route":
            sources = np.array([p[0] for p in payloads], dtype=np.int64)
            targets = np.array([p[1] for p in payloads], dtype=np.int64)
            return route_batch(oracle, sources, targets).to_records()
        if endpoint == "k_nearest":
            # Requests with different k cannot share one engine call;
            # group by k, answer each group vectorized, and scatter the
            # rows back to request order.
            results: List[Any] = [None] * len(payloads)
            by_k: Dict[int, List[Tuple[int, int]]] = {}
            for position, (node, k) in enumerate(payloads):
                by_k.setdefault(int(k), []).append((position, int(node)))
            for k, entries in by_k.items():
                nodes = [node for _, node in entries]
                ids, dists = oracle.k_nearest(k, sources=nodes)
                for (position, _), id_row, dist_row in zip(
                    entries, ids.tolist(), dists.tolist()
                ):
                    results[position] = {"ids": id_row, "dists": dist_row}
            return results
        raise ValueError(f"unknown endpoint {endpoint!r}; one of {ENDPOINTS}")

    # ------------------------------------------------------------------ #
    # Lifecycle and introspection
    # ------------------------------------------------------------------ #

    async def drain(self) -> None:
        """Flush what every batcher still holds."""
        for batcher in list(self._batchers.values()):
            await batcher.drain()

    def close(self) -> None:
        """Shut the executor down; further requests raise.

        Requests still parked in a batcher (submitted but never
        flushed — e.g. the owning event loop exited mid-window) are
        failed via :meth:`MicroBatcher.fail_pending` rather than left
        hanging forever; the count lands in ``cancelled_at_close``.
        """
        if not self._closed:
            self._closed = True
            for batcher in self._batchers.values():
                failed = batcher.fail_pending()
                if failed:
                    self.metrics.bump("cancelled_at_close", failed)
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "OracleService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def snapshot(self) -> Dict[str, Any]:
        """The full JSON-round-trippable state of the tier."""
        with self._admission_lock:
            tenants = {
                tenant: store.stats()
                for tenant, store in sorted(self._stores.items())
            }
        batchers = {
            f"{tenant}/{endpoint}/{handle[:12]}": batcher.stats.snapshot()
            for (endpoint, tenant, handle), batcher in sorted(
                self._batchers.items()
            )
        }
        return {
            "config": self.config.to_dict(),
            "metrics": self.metrics.snapshot(),
            "tenants": tenants,
            "batchers": batchers,
            "closed": self._closed,
        }


# ---------------------------------------------------------------------- #
# Synthetic load generation (serve-bench / E21)
# ---------------------------------------------------------------------- #


@dataclass
class LoadReport:
    """Outcome of one load-generator run (client-side measurements)."""

    mode: str  # "closed" or "open"
    offered: float  # concurrency (closed) or requests/s (open)
    requests: int
    errors: int
    wall_seconds: float
    latencies: List[float]  # per-request seconds, completion order

    @property
    def qps(self) -> float:
        """Completed requests per second of wall clock."""
        if self.wall_seconds <= 0:
            return float("nan")
        return (self.requests - self.errors) / self.wall_seconds

    def snapshot(self) -> Dict[str, Any]:
        ordered = sorted(self.latencies)
        return {
            "mode": self.mode,
            "offered": self.offered,
            "requests": self.requests,
            "errors": self.errors,
            "wall_seconds": self.wall_seconds,
            "qps": self.qps if self.wall_seconds > 0 else None,
            "latency": {
                "count": len(ordered),
                "mean": sum(ordered) / len(ordered) if ordered else None,
                "max": ordered[-1] if ordered else None,
                "p50": quantile(ordered, 0.50),
                "p95": quantile(ordered, 0.95),
                "p99": quantile(ordered, 0.99),
            },
        }


async def run_closed_loop(
    make_request: Callable[[int], Awaitable[Any]],
    requests: int,
    concurrency: int,
) -> LoadReport:
    """Closed-loop load: ``concurrency`` clients, each one request at a time.

    The classic saturation driver — offered load rises with the client
    count because a client only issues its next request after the
    previous response lands.  ``make_request(i)`` is awaited once per
    request index ``i`` in ``range(requests)``.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    latencies: List[float] = []
    errors = 0
    next_index = 0

    async def client() -> None:
        nonlocal next_index, errors
        while True:
            index = next_index
            if index >= requests:
                return
            next_index = index + 1
            start = time.perf_counter()
            try:
                await make_request(index)
            except Exception:  # noqa: BLE001 - load gen counts, not raises
                errors += 1
            else:
                latencies.append(time.perf_counter() - start)

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(min(concurrency, requests) or 1)))
    wall = time.perf_counter() - started
    return LoadReport(
        mode="closed",
        offered=float(concurrency),
        requests=requests,
        errors=errors,
        wall_seconds=wall,
        latencies=latencies,
    )


async def run_open_loop(
    make_request: Callable[[int], Awaitable[Any]],
    requests: int,
    rate_per_s: float,
) -> LoadReport:
    """Open-loop load: fire at a fixed rate, independent of completions.

    Requests launch on a deterministic schedule (request ``i`` at
    ``i / rate_per_s`` seconds); in-flight counts float freely, so an
    overloaded tier shows up as latency growth rather than a silently
    reduced offered load.
    """
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be > 0")
    loop = asyncio.get_running_loop()
    latencies: List[float] = []
    errors = 0

    async def timed(index: int) -> None:
        nonlocal errors
        start = time.perf_counter()
        try:
            await make_request(index)
        except Exception:  # noqa: BLE001
            errors += 1
        else:
            latencies.append(time.perf_counter() - start)

    tasks = []
    started = time.perf_counter()
    loop_started = loop.time()
    for index in range(requests):
        delay = loop_started + index / rate_per_s - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(timed(index)))
    if tasks:
        await asyncio.gather(*tasks)
    wall = time.perf_counter() - started
    return LoadReport(
        mode="open",
        offered=float(rate_per_s),
        requests=requests,
        errors=errors,
        wall_seconds=wall,
        latencies=latencies,
    )


__all__ = [
    "ENDPOINTS",
    "AdmissionError",
    "LoadReport",
    "OracleService",
    "ServiceConfig",
    "oracle_handle",
    "run_closed_loop",
    "run_open_loop",
]
