"""Tests for the async serving tier (service, batching, metrics, store
concurrency)."""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import Executor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.graphs import erdos_renyi, exact_apsp, graph_content_hash
from repro.serve import (
    AdmissionError,
    DistanceOracle,
    LatencyReservoir,
    MicroBatcher,
    OracleService,
    OracleStore,
    ServiceConfig,
    ServiceMetrics,
    oracle_handle,
    route_batch,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.metrics import quantile

from tests.helpers import make_rng


def build_case(seed: int, n: int = 32, p: float = 0.15):
    rng = make_rng(seed)
    graph = erdos_renyi(n, p, rng)
    exact = exact_apsp(graph)
    estimate = exact * (1.0 + 0.5 * rng.random((n, n)))
    np.fill_diagonal(estimate, 0.0)
    return graph, estimate


# ---------------------------------------------------------------------- #
# OracleStore concurrency (single-flight, bounds under hammering)
# ---------------------------------------------------------------------- #


class TestStoreConcurrency:
    def test_single_flight_builds_once(self, monkeypatch):
        """Concurrent misses on one key run exactly one (slow) build."""
        graph, estimate = build_case(0)
        builds = []
        original = DistanceOracle.build.__func__

        def slow_build(cls, graph, source, meta=None):
            builds.append(threading.get_ident())
            time.sleep(0.05)  # wide window for the stampede to pile into
            return original(cls, graph, source, meta=meta)

        monkeypatch.setattr(
            DistanceOracle, "build", classmethod(slow_build)
        )
        store = OracleStore()
        workers = 8
        with ThreadPoolExecutor(max_workers=workers) as pool:
            oracles = list(
                pool.map(
                    lambda _: store.get_or_build(graph, estimate),
                    range(workers),
                )
            )
        assert len(builds) == 1
        assert store.builds == 1
        assert store.misses == 1
        assert store.hits == workers - 1
        assert store.build_seconds > 0
        # Every waiter shares the one artifact.
        assert all(o is oracles[0] for o in oracles)

    def test_single_flight_failure_releases_waiters(self, monkeypatch):
        """A failed build unblocks waiters; the next caller retries."""
        graph, estimate = build_case(1)
        original = DistanceOracle.build.__func__
        fail_first = {"pending": True}

        def flaky_build(cls, graph, source, meta=None):
            if fail_first["pending"]:
                fail_first["pending"] = False
                time.sleep(0.02)
                raise RuntimeError("injected build failure")
            return original(cls, graph, source, meta=meta)

        monkeypatch.setattr(DistanceOracle, "build", classmethod(flaky_build))
        store = OracleStore()
        with pytest.raises(RuntimeError, match="injected"):
            store.get_or_build(graph, estimate)
        # The key is not wedged: the next call becomes the builder.
        oracle = store.get_or_build(graph, estimate)
        assert oracle.n == graph.n
        assert store.builds == 1

    def test_parallel_hammer_respects_bounds(self):
        """Mixed put/get across threads keeps both LRU bounds honest."""
        cases = [build_case(seed, n=16) for seed in range(10)]
        store = OracleStore(max_entries=4)
        errors = []

        def worker(offset: int) -> None:
            rng = make_rng(offset)
            try:
                for index in rng.permutation(len(cases)).tolist() * 3:
                    graph, estimate = cases[index]
                    oracle = store.get_or_build(graph, estimate)
                    assert oracle.n == graph.n
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(store) <= 4
        stats = store.stats()
        assert stats["entries"] == len(store)
        assert stats["evictions"] >= stats["builds"] - 4
        # The byte counter matches what is actually resident.
        resident = sum(o.nbytes for o in store._store.values())
        assert store.nbytes == resident

    def test_eviction_counts_and_prunes_aliases(self):
        store = OracleStore(max_entries=1)
        (graph_a, est_a), (graph_b, est_b) = build_case(2), build_case(3)
        store.get_or_build(graph_a, est_a, alias="a")
        store.get_or_build(graph_b, est_b, alias="b")
        assert store.evictions == 1
        assert store.lookup("a") is None
        assert store.lookup("b") is not None
        assert store.stats()["aliases"] == 1

    def test_alias_survives_clear_reset(self):
        store = OracleStore()
        graph, estimate = build_case(4)
        store.get_or_build(graph, estimate, alias="x")
        assert store.lookup("x") is not None
        store.clear()
        assert store.lookup("x") is None
        assert store.stats()["builds"] == 0


# ---------------------------------------------------------------------- #
# MicroBatcher semantics
# ---------------------------------------------------------------------- #


class TestMicroBatcher:
    def test_flush_on_size(self):
        """max_batch concurrent submits flush at once, as one size flush."""
        flushed = []

        def flush(items):
            flushed.append(list(items))
            return [i * 10 for i in items]

        batcher = MicroBatcher(flush, max_batch=4)

        async def main():
            return await asyncio.gather(*(batcher.submit(i) for i in range(4)))

        results = asyncio.run(asyncio.wait_for(main(), timeout=5))
        assert results == [0, 10, 20, 30]
        assert flushed == [[0, 1, 2, 3]]
        assert batcher.stats.size_flushes == 1
        assert batcher.stats.idle_flushes == 0
        assert batcher.stats.max_batch_seen == 4

    def test_lone_submit_flushes_without_timer(self):
        """An idle batcher flushes a lone request at the end of the tick."""
        batcher = MicroBatcher(lambda items: items, max_batch=100)

        async def main():
            return await batcher.submit("a")

        assert asyncio.run(asyncio.wait_for(main(), timeout=5)) == "a"
        snapshot = batcher.stats.snapshot()
        assert snapshot["idle_flushes"] == 1
        assert snapshot["flushes"] == 1
        assert snapshot["deadline_flushes"] == 0

    def test_submits_in_one_tick_share_one_flush(self):
        flushed = []

        def flush(items):
            flushed.append(list(items))
            return items

        batcher = MicroBatcher(flush, max_batch=100)

        async def main():
            return await asyncio.gather(
                *(batcher.submit(i) for i in range(5))
            )

        assert asyncio.run(asyncio.wait_for(main(), timeout=5)) == [
            0, 1, 2, 3, 4
        ]
        assert flushed == [[0, 1, 2, 3, 4]]
        assert batcher.stats.idle_flushes == 1

    def test_flush_runs_on_the_loop_thread(self):
        threads = []

        def flush(items):
            threads.append(threading.get_ident())
            return items

        batcher = MicroBatcher(flush, max_batch=2)

        async def main():
            # Three requests: one size flush and one idle flush.
            return await asyncio.gather(*(batcher.submit(i) for i in range(3)))

        assert asyncio.run(asyncio.wait_for(main(), timeout=5)) == [0, 1, 2]
        assert threads == [threading.get_ident()] * 2

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 30])
    def test_submits_in_one_tick_make_ceil_n_over_max_batch_flushes(
        self, count
    ):
        max_batch = 8
        flushed = []

        def flush(items):
            flushed.append(list(items))
            return items

        batcher = MicroBatcher(flush, max_batch=max_batch)

        async def main():
            return await asyncio.gather(
                *(batcher.submit(i) for i in range(count))
            )

        assert asyncio.run(asyncio.wait_for(main(), timeout=5)) == list(
            range(count)
        )
        assert len(flushed) == -(-count // max_batch)
        assert max(len(batch) for batch in flushed) <= max_batch
        assert [i for batch in flushed for i in batch] == list(range(count))
        assert batcher.stats.size_flushes == count // max_batch
        assert batcher.stats.idle_flushes == (1 if count % max_batch else 0)

    def test_cancelled_parked_request_is_skipped_by_its_flush(self):
        flushed = []

        def flush(items):
            flushed.append(list(items))
            return items

        batcher = MicroBatcher(flush, max_batch=100)

        async def main():
            tasks = [asyncio.ensure_future(batcher.submit(x))
                     for x in ("a", "b", "c")]
            await asyncio.sleep(0)  # all three parked, idle flush queued
            assert batcher.pending == 3
            tasks[1].cancel()
            return await asyncio.gather(*tasks, return_exceptions=True)

        a, b, c = asyncio.run(asyncio.wait_for(main(), timeout=5))
        assert (a, c) == ("a", "c")
        assert isinstance(b, asyncio.CancelledError)
        assert flushed == [["a", "c"]]
        assert batcher.stats.cancelled == 1
        assert batcher.stats.completed == 2

    def test_oversubmission_splits_into_size_batches(self):
        def flush(items):
            return [i + 1 for i in items]

        batcher = MicroBatcher(flush, max_batch=8)

        async def main():
            return await asyncio.gather(
                *(batcher.submit(i) for i in range(30))
            )

        results = asyncio.run(main())
        assert results == [i + 1 for i in range(30)]
        stats = batcher.stats
        assert stats.submitted == stats.completed == 30
        assert stats.size_flushes >= 3  # 30 // 8 full windows
        assert stats.max_batch_seen == 8

    def test_flush_error_fails_every_request(self):
        def flush(items):
            raise ValueError("boom")

        batcher = MicroBatcher(flush, max_batch=2)

        async def main():
            return await asyncio.gather(
                batcher.submit(1), batcher.submit(2), return_exceptions=True
            )

        results = asyncio.run(main())
        assert all(isinstance(r, ValueError) for r in results)
        assert batcher.stats.errors == 1

    def test_flush_length_mismatch_is_an_error(self):
        batcher = MicroBatcher(lambda items: [0], max_batch=2)

        async def main():
            return await asyncio.gather(
                batcher.submit(1), batcher.submit(2), return_exceptions=True
            )

        results = asyncio.run(main())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_drain_flushes_pending(self):
        flushed = []

        def flush(items):
            flushed.append(list(items))
            return items

        batcher = MicroBatcher(flush, max_batch=100)

        async def main():
            task = asyncio.ensure_future(batcher.submit("x"))
            await asyncio.sleep(0)  # enqueued, idle flush not yet run
            await batcher.drain()
            return await task

        assert asyncio.run(asyncio.wait_for(main(), timeout=5)) == "x"
        assert flushed == [["x"]]
        assert batcher.stats.drain_flushes == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda x: x, max_batch=0)


# ---------------------------------------------------------------------- #
# Metrics plane
# ---------------------------------------------------------------------- #


class TestMetrics:
    def test_reservoir_exact_quantiles_below_capacity(self):
        reservoir = LatencyReservoir(capacity=256)
        for value in range(101):  # 0..100
            reservoir.record(float(value))
        assert reservoir.quantile(0.5) == pytest.approx(50.0)
        assert reservoir.quantile(0.99) == pytest.approx(99.0)
        assert reservoir.quantile(0.0) == 0.0
        assert reservoir.quantile(1.0) == 100.0
        snap = reservoir.snapshot()
        assert snap["count"] == 101
        assert snap["max"] == 100.0
        assert snap["p50"] == pytest.approx(50.0)

    def test_reservoir_bounds_memory_and_tracks_totals(self):
        reservoir = LatencyReservoir(capacity=16, seed=1)
        for value in range(10_000):
            reservoir.record(float(value))
        assert len(reservoir._samples) == 16
        assert reservoir.count == 10_000
        assert reservoir.max_value == 9999.0
        # The retained sample stays representative, not the first 16.
        assert reservoir.quantile(0.5) > 100.0

    def test_empty_reservoir_is_json_safe(self):
        snap = LatencyReservoir().snapshot()
        assert snap == json.loads(json.dumps(snap, allow_nan=False))
        assert snap["p50"] is None and snap["mean"] is None

    def test_quantile_helper_validates(self):
        assert quantile([], 0.5) is None
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)
        assert quantile([1.0, 3.0], 0.5) == pytest.approx(2.0)

    def test_service_metrics_streams_and_round_trip(self):
        metrics = ServiceMetrics()
        metrics.record_request("distance", 0.001, batched=True)
        metrics.record_request("distance", 0.002, batched=False)
        metrics.record_request("distance", 0.0, batched=True, error=True)
        metrics.record_batch("distance", 7)
        metrics.record_batch("distance", 3)
        metrics.bump("warms")
        snap = metrics.snapshot()
        assert snap == json.loads(json.dumps(snap, allow_nan=False))
        assert snap["endpoints"]["distance/batched"]["requests"] == 2
        assert snap["endpoints"]["distance/batched"]["errors"] == 1
        assert snap["endpoints"]["distance/single"]["requests"] == 1
        assert snap["batching"]["distance"] == {
            "batches": 2,
            "items": 10,
            "max_batch": 7,
            "mean_batch": 5.0,
        }
        assert snap["counters"]["warms"] == 1


# ---------------------------------------------------------------------- #
# OracleService
# ---------------------------------------------------------------------- #


def small_service(**overrides):
    config = dict(
        max_batch=8, max_workers=2, max_tenants=4
    )
    config.update(overrides)
    return OracleService(ServiceConfig(**config))


class RefusingPool(Executor):
    """A thread-pool stand-in that raises on every submit."""

    def submit(self, fn, *args, **kwargs):
        raise AssertionError("the thread pool was used")


class TestOracleService:
    def test_warm_returns_graph_hash_addressed_handle(self):
        graph, estimate = build_case(5)
        with small_service() as service:
            handle = service.warm(graph, variant="", seed=3, result=estimate)
            assert handle == oracle_handle(graph, "", 3)
            assert handle.startswith(graph_content_hash(graph))
            oracle = service.oracle(handle)
            assert oracle.n == graph.n

    def test_rewarm_hits_store_and_skips_build(self):
        graph, estimate = build_case(6)
        with small_service() as service:
            first = service.warm(graph, variant="", seed=0, result=estimate)
            second = service.warm(graph, variant="", seed=0, result=estimate)
            assert first == second
            stats = service.store().stats()
            assert stats["builds"] == 1
            counters = service.snapshot()["metrics"]["counters"]
            assert counters["warms"] == 1
            assert counters["warm_hits"] == 1

    def test_warm_solves_when_no_result_given(self):
        rng = make_rng(7)
        graph = erdos_renyi(24, 0.2, rng)
        with small_service() as service:
            handle = service.warm(graph, variant="small-diameter", seed=1)
            oracle = service.oracle(handle)
            assert oracle.meta["variant"] == "small-diameter"
            assert oracle.meta["seed"] == 1

    def test_unwarmed_handle_raises(self):
        with small_service() as service:
            with pytest.raises(KeyError, match="no warmed oracle"):
                service.oracle("missing-handle")

    def test_tenant_admission_cap(self):
        with small_service(max_tenants=2) as service:
            service.store("a")
            service.store("b")
            service.store("a")  # readmission of a known tenant is free
            with pytest.raises(AdmissionError):
                service.store("c")
            counters = service.snapshot()["metrics"]["counters"]
            assert counters["tenants_admitted"] == 2
            assert counters["tenants_rejected"] == 1

    def test_tenants_are_isolated(self):
        graph, estimate = build_case(8)
        with small_service() as service:
            handle = service.warm(graph, variant="", seed=0, result=estimate,
                                  tenant="a")
            with pytest.raises(KeyError):
                service.oracle(handle, tenant="b")
            snapshot = service.snapshot()
            assert snapshot["tenants"]["a"]["builds"] == 1
            assert snapshot["tenants"]["b"]["builds"] == 0

    def test_eviction_surfaces_on_next_request(self):
        (graph_a, est_a), (graph_b, est_b) = build_case(9), build_case(10)
        with small_service(store_max_entries=1) as service:
            handle_a = service.warm(graph_a, variant="", seed=0, result=est_a)
            service.warm(graph_b, variant="", seed=0, result=est_b)
            assert service.store().stats()["evictions"] == 1

            async def query():
                return await service.distance(handle_a, 0, 1)

            with pytest.raises(KeyError):
                asyncio.run(query())

    def test_batched_results_bit_identical_to_single(self):
        graph, estimate = build_case(11, n=40)
        with small_service(max_batch=16) as service:
            handle = service.warm(graph, variant="", seed=0, result=estimate)
            rng = make_rng(99)
            sources = rng.integers(0, graph.n, size=64)
            targets = rng.integers(0, graph.n, size=64)

            async def both(endpoint):
                call = getattr(service, endpoint)
                batched = await asyncio.gather(
                    *(
                        call(handle, int(s), int(t), batched=True)
                        for s, t in zip(sources, targets)
                    )
                )
                single = await asyncio.gather(
                    *(
                        call(handle, int(s), int(t), batched=False)
                        for s, t in zip(sources, targets)
                    )
                )
                return batched, single

            for endpoint in ("distance", "route"):
                batched, single = asyncio.run(both(endpoint))
                assert batched == single, endpoint

            async def knn(batched):
                return await asyncio.gather(
                    *(
                        service.k_nearest(
                            handle, int(s), 3 + (i % 3), batched=batched
                        )
                        for i, s in enumerate(sources)
                    )
                )

            assert asyncio.run(knn(True)) == asyncio.run(knn(False))

    def test_batched_answers_match_engine_directly(self):
        graph, estimate = build_case(12, n=36)
        with small_service(max_batch=4) as service:
            handle = service.warm(graph, variant="", seed=0, result=estimate)
            oracle = service.oracle(handle)
            rng = make_rng(5)
            sources = rng.integers(0, graph.n, size=12)
            targets = rng.integers(0, graph.n, size=12)

            async def main():
                distances = await asyncio.gather(
                    *(
                        service.distance(handle, int(s), int(t))
                        for s, t in zip(sources, targets)
                    )
                )
                routes = await asyncio.gather(
                    *(
                        service.route(handle, int(s), int(t))
                        for s, t in zip(sources, targets)
                    )
                )
                nearest = await service.k_nearest(handle, int(sources[0]), 4)
                return distances, routes, nearest

            distances, routes, nearest = asyncio.run(main())
            expected = oracle.query_many(sources, targets)
            assert distances == [float(v) for v in expected]
            assert routes == route_batch(oracle, sources, targets).to_records()
            ids, dists = oracle.k_nearest(4, sources=[int(sources[0])])
            assert nearest == {
                "ids": [int(v) for v in ids[0]],
                "dists": [float(d) for d in dists[0]],
            }

    def test_batched_path_never_touches_the_pool(self):
        graph, estimate = build_case(17, n=36)
        service = small_service(max_batch=4)
        service._executor.shutdown()
        service._executor = RefusingPool()
        with service:
            handle = service.warm(graph, variant="", seed=0, result=estimate)
            oracle = service.oracle(handle)
            rng = make_rng(6)
            sources = rng.integers(0, graph.n, size=10)
            targets = rng.integers(0, graph.n, size=10)
            ks = [2 + i % 3 for i in range(10)]

            async def main():
                return await asyncio.gather(
                    asyncio.gather(*(service.distance(handle, int(s), int(t))
                                     for s, t in zip(sources, targets))),
                    asyncio.gather(*(service.route(handle, int(s), int(t))
                                     for s, t in zip(sources, targets))),
                    asyncio.gather(*(service.k_nearest(handle, int(s), k)
                                     for s, k in zip(sources, ks))),
                )

            distances, routes, nearest = asyncio.run(main())
            assert distances == oracle.query_many(sources, targets).tolist()
            assert routes == route_batch(oracle, sources, targets).to_records()
            for s, k, answer in zip(sources, ks, nearest):
                ids, dists = oracle.k_nearest(k, sources=[int(s)])
                assert answer == {"ids": ids[0].tolist(),
                                  "dists": dists[0].tolist()}
            # The single-query arm does go through the pool.
            with pytest.raises(AssertionError, match="thread pool"):
                asyncio.run(service.distance(handle, 0, 1, batched=False))

    def test_requests_batch_within_window(self):
        graph, estimate = build_case(13)
        with small_service(max_batch=16) as service:
            handle = service.warm(graph, variant="", seed=0, result=estimate)

            async def main():
                return await asyncio.gather(
                    *(service.distance(handle, i % 8, (i * 3) % 8)
                      for i in range(16))
                )

            asyncio.run(main())
            batching = service.snapshot()["metrics"]["batching"]["distance"]
            assert batching["batches"] < 16  # actually coalesced
            assert batching["items"] == 16
            assert batching["max_batch"] >= 2

    def test_closed_service_rejects_requests(self):
        graph, estimate = build_case(14)
        service = small_service()
        handle = service.warm(graph, variant="", seed=0, result=estimate)
        service.close()

        async def query():
            return await service.distance(handle, 0, 1)

        with pytest.raises(RuntimeError, match="closed"):
            asyncio.run(query())

    def test_snapshot_json_round_trip(self):
        graph, estimate = build_case(15)
        with small_service() as service:
            handle = service.warm(graph, variant="", seed=0, result=estimate)

            async def main():
                await asyncio.gather(
                    *(service.distance(handle, i % 8, (i * 5) % 8)
                      for i in range(10))
                )
                await service.route(handle, 0, 5, batched=False)

            asyncio.run(main())
            snapshot = service.snapshot()
        assert snapshot == json.loads(json.dumps(snapshot, allow_nan=False))
        assert "distance/batched" in snapshot["metrics"]["endpoints"]
        assert "route/single" in snapshot["metrics"]["endpoints"]
        latency = snapshot["metrics"]["endpoints"]["distance/batched"]["latency"]
        assert latency["count"] == 10
        assert latency["p50"] is not None and latency["p99"] is not None

    def test_service_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_tenants=0)

    def test_max_delay_knob_is_gone(self):
        """No flush deadline is left to configure."""
        with pytest.raises(TypeError):
            ServiceConfig(max_delay_ms=2.0)
        assert "max_delay_ms" not in ServiceConfig().to_dict()

    def test_oracle_handle_includes_t(self):
        graph, _ = build_case(16)
        plain = oracle_handle(graph, "tradeoff", 0)
        with_t = oracle_handle(graph, "tradeoff", 0, t=2)
        assert plain != with_t
        assert with_t.endswith(":t=2")


# ---------------------------------------------------------------------- #
# Load generators
# ---------------------------------------------------------------------- #


class TestLoadGenerators:
    def test_closed_loop_counts_and_bounds_concurrency(self):
        peak = {"now": 0, "max": 0}

        async def request(_):
            peak["now"] += 1
            peak["max"] = max(peak["max"], peak["now"])
            await asyncio.sleep(0.001)
            peak["now"] -= 1

        report = asyncio.run(run_closed_loop(request, 40, 4))
        assert report.requests == 40
        assert report.errors == 0
        assert len(report.latencies) == 40
        assert peak["max"] <= 4
        snap = report.snapshot()
        assert snap == json.loads(json.dumps(snap, allow_nan=False))
        assert snap["qps"] > 0
        assert snap["latency"]["p99"] >= snap["latency"]["p50"]

    def test_closed_loop_counts_errors(self):
        async def request(i):
            if i % 2:
                raise ValueError("odd")

        report = asyncio.run(run_closed_loop(request, 10, 2))
        assert report.errors == 5
        assert len(report.latencies) == 5

    def test_open_loop_fires_all_requests(self):
        seen = []

        async def request(i):
            seen.append(i)

        report = asyncio.run(run_open_loop(request, 25, 10_000.0))
        assert sorted(seen) == list(range(25))
        assert report.mode == "open"
        assert report.offered == 10_000.0

    def test_generator_validation(self):
        async def request(_):
            return None

        with pytest.raises(ValueError):
            asyncio.run(run_closed_loop(request, 5, 0))
        with pytest.raises(ValueError):
            asyncio.run(run_open_loop(request, 5, 0.0))


# ---------------------------------------------------------------------- #
# Robustness: request timeouts, bounded retry, shutdown fan-out (PR 7)
# ---------------------------------------------------------------------- #


class TestTimeoutRetry:
    def warm_service(self, **overrides):
        graph, estimate = build_case(11)
        service = small_service(**overrides)
        handle = service.warm(graph, variant="", seed=0, result=estimate)
        return service, handle

    def test_transient_slowness_is_retried_to_success(self):
        # Workers stay parked on the timed-out sleep (cancelling the
        # awaiting future does not interrupt the thread), so the pool
        # needs headroom for the retry to start promptly.
        service, handle = self.warm_service(
            request_timeout_s=0.1,
            max_retries=3,
            retry_backoff_ms=1.0,
            max_workers=4,
        )
        real_execute = service._execute
        calls = {"count": 0}

        def flaky(endpoint, tenant, oracle_handle, payloads):
            calls["count"] += 1
            if calls["count"] == 1:
                time.sleep(0.5)  # blow through the per-attempt timeout
            return real_execute(endpoint, tenant, oracle_handle, payloads)

        service._execute = flaky
        with service:
            value = asyncio.run(service.distance(handle, 0, 1, batched=False))
        assert np.isfinite(value) or value == float("inf")
        counters = service.metrics.snapshot()["counters"]
        assert counters["timeouts"] == 1
        assert counters["retries"] == 1

    def test_final_timeout_propagates_after_budget(self):
        service, handle = self.warm_service(
            request_timeout_s=0.02, max_retries=1, retry_backoff_ms=1.0
        )
        real_execute = service._execute

        def always_slow(endpoint, tenant, oracle_handle, payloads):
            time.sleep(0.25)
            return real_execute(endpoint, tenant, oracle_handle, payloads)

        service._execute = always_slow
        with service:
            with pytest.raises(asyncio.TimeoutError):
                asyncio.run(service.distance(handle, 0, 1, batched=False))
        counters = service.metrics.snapshot()["counters"]
        assert counters["timeouts"] == 2  # initial attempt + one retry
        assert counters["retries"] == 1
        endpoints = service.metrics.snapshot()["endpoints"]
        assert endpoints["distance/single"]["errors"] == 1

    def test_timeout_bounds_only_the_pool_path(self):
        """A batched flush runs synchronously on the event loop, queued
        ahead of any timer, so ``request_timeout_s`` never cuts a batched
        request off; ``batched=False`` requests time out and are retried."""
        service, handle = self.warm_service(
            request_timeout_s=0.01, max_retries=1, retry_backoff_ms=1.0
        )
        real_execute = service._execute

        def slow(endpoint, tenant, oracle_handle, payloads):
            time.sleep(0.02)
            return real_execute(endpoint, tenant, oracle_handle, payloads)

        service._execute = slow
        pairs = [(s, (7 * s + 3) % 32) for s in range(12)]

        async def batched():
            return await asyncio.gather(
                *(service.distance(handle, s, t) for s, t in pairs),
                *(service.route(handle, s, t) for s, t in pairs),
            )

        with service:
            answers = asyncio.run(batched())
            counters = service.metrics.snapshot()["counters"]
            assert counters["timeouts"] == 0 and counters["retries"] == 0
            assert answers[:12] == real_execute("distance", "default", handle, pairs)
            assert answers[12:] == real_execute("route", "default", handle, pairs)
            with pytest.raises(asyncio.TimeoutError):
                asyncio.run(service.distance(handle, 0, 1, batched=False))
        counters = service.metrics.snapshot()["counters"]
        assert counters["timeouts"] == 2  # the attempt and its one retry
        assert counters["retries"] == 1

    def test_evicted_oracle_is_not_retried(self):
        service, handle = self.warm_service(
            request_timeout_s=1.0, max_retries=5, retry_backoff_ms=1.0
        )
        with service:
            with pytest.raises(KeyError):
                asyncio.run(
                    service.distance("no:such:handle", 0, 1, batched=False)
                )
        counters = service.metrics.snapshot()["counters"]
        assert counters["retries"] == 0

    def test_counters_pre_seeded_on_clean_service(self):
        service = small_service()
        with service:
            counters = service.metrics.snapshot()["counters"]
        assert counters["timeouts"] == 0
        assert counters["retries"] == 0

    def test_timeout_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(request_timeout_s=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ServiceConfig(retry_backoff_ms=-1.0)
        config = ServiceConfig(request_timeout_s=0.5, max_retries=2)
        assert config.to_dict()["request_timeout_s"] == 0.5
        assert config.to_dict()["max_retries"] == 2


class TestShutdownFanout:
    def test_fail_pending_cancels_parked_futures(self):
        flushed = []
        batcher = MicroBatcher(lambda items: flushed.append(items) or items,
                               max_batch=100)

        async def main():
            task = asyncio.ensure_future(batcher.submit("x"))
            await asyncio.sleep(0)  # submitted, idle flush not yet run
            assert batcher.pending == 1
            assert batcher.fail_pending() == 1
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(asyncio.wait_for(main(), timeout=5))
        assert batcher.stats.cancelled == 1
        assert batcher.pending == 0
        assert flushed == []  # the queued idle flush found nothing

    def test_fail_pending_with_explicit_exception(self):
        batcher = MicroBatcher(lambda items: items, max_batch=100)

        async def main():
            task = asyncio.ensure_future(batcher.submit("x"))
            await asyncio.sleep(0)
            batcher.fail_pending(RuntimeError("shutting down"))
            with pytest.raises(RuntimeError, match="shutting down"):
                await task

        asyncio.run(asyncio.wait_for(main(), timeout=5))
        assert batcher.stats.flushes == 0

    def test_close_fails_requests_parked_at_close_time(self):
        graph, estimate = build_case(12)
        service = small_service(max_batch=64)
        handle = service.warm(graph, variant="", seed=0, result=estimate)

        async def main():
            answered = await service.distance(handle, 0, 1)
            task = asyncio.ensure_future(service.distance(handle, 2, 3))
            await asyncio.sleep(0)  # submitted, idle flush not yet run
            service.close()
            with pytest.raises(asyncio.CancelledError):
                await task
            return answered

        assert asyncio.run(asyncio.wait_for(main(), timeout=5)) == float(
            estimate[0, 1]
        )
        counters = service.metrics.snapshot()["counters"]
        assert counters["cancelled_at_close"] == 1

    def test_drain_flushes_request_parked_during_final_flush(self):
        # A request submitted but not yet flushed is answered by drain()
        # itself; the idle flush queued for it then finds nothing.
        flushed = []
        batcher = MicroBatcher(lambda items: flushed.append(items) or items,
                               max_batch=100)

        async def main():
            task = asyncio.ensure_future(batcher.submit("a"))
            await asyncio.sleep(0)
            assert batcher.pending == 1
            await batcher.drain()
            assert batcher.pending == 0
            return await task

        assert asyncio.run(asyncio.wait_for(main(), timeout=5)) == "a"
        assert flushed == [["a"]]
        assert batcher.stats.drain_flushes == 1
        assert batcher.stats.idle_flushes == 0


class TestMetricsFiniteGuard:
    """Regression for the json-nan-leak fix: the reservoir rejects
    non-finite samples at the door and sanitizes its snapshot."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_record_rejects_non_finite(self, bad):
        reservoir = LatencyReservoir()
        with pytest.raises(ValueError, match="finite"):
            reservoir.record(bad)
        assert reservoir.count == 0

    def test_snapshot_sanitizes_poisoned_samples(self):
        # Defense in depth: even if a non-finite value bypassed record()
        # (e.g. legacy pickled state), the snapshot must stay strict-JSON.
        reservoir = LatencyReservoir()
        reservoir.record(0.5)
        reservoir._samples.append(float("inf"))
        snap = reservoir.snapshot()
        assert snap == json.loads(json.dumps(snap, allow_nan=False))
        assert snap["p99"] is None  # inf quantile sanitized, not leaked
        assert snap["mean"] == pytest.approx(0.5)

    def test_finite_or_none(self):
        from repro.serve.metrics import finite_or_none

        assert finite_or_none(None) is None
        assert finite_or_none(float("nan")) is None
        assert finite_or_none(float("inf")) is None
        assert finite_or_none(1.5) == 1.5
        assert finite_or_none(np.float64(2.5)) == 2.5
        assert type(finite_or_none(np.float64(2.5))) is float
