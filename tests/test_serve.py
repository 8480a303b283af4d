"""Tests for the distance-oracle query plane (repro.serve)."""

from __future__ import annotations

import base64
import json
import os

import numpy as np
import pytest

from repro.api import ApspSolver, SolverConfig
from repro.core.routing_tables import greedy_route, next_hop_table
from repro.graphs import WeightedGraph, erdos_renyi, exact_apsp, graph_content_hash
from repro.serve import (
    STATUS_BUDGET,
    STATUS_DEAD_END,
    STATUS_DELIVERED,
    STATUS_LOOP,
    ArtifactIntegrityError,
    DistanceOracle,
    OracleStore,
    audit_stretch,
    estimate_digest,
    oracle_key,
    route_batch,
)

from tests.helpers import make_rng


def build_case(seed: int, n: int = 40, p: float = 0.12):
    """A seeded graph plus a noisy estimate (greedy loops do occur)."""
    rng = make_rng(seed)
    graph = erdos_renyi(n, p, rng)
    exact = exact_apsp(graph)
    estimate = exact * (1.0 + 0.6 * rng.random((n, n)))
    np.fill_diagonal(estimate, 0.0)
    return graph, estimate, exact


class TestDistanceOracle:
    def test_build_from_result_carries_provenance(self):
        rng = make_rng(0)
        graph = erdos_renyi(32, 0.15, rng)
        result = ApspSolver(SolverConfig(variant="small-diameter", seed=5)).solve(
            graph
        )
        oracle = result.oracle(graph, owner="tests")
        assert oracle.n == 32
        assert oracle.meta["variant"] == "small-diameter"
        assert oracle.meta["seed"] == 5
        assert oracle.meta["graph_hash"] == graph_content_hash(graph)
        assert oracle.meta["owner"] == "tests"
        assert oracle.factor == pytest.approx(result.factor)
        assert np.array_equal(
            oracle.next_hop, next_hop_table(graph, result.estimate)
        )

    def test_hop_weight_matches_graph_edges(self):
        graph, estimate, _ = build_case(1)
        oracle = DistanceOracle.build(graph, estimate)
        matrix = graph.matrix()
        table = oracle.next_hop
        for u in range(graph.n):
            for t in (0, graph.n // 2, graph.n - 1):
                nxt = table[u, t]
                if nxt >= 0:
                    assert oracle.hop_weight[u, t] == matrix[u, nxt]
                else:
                    assert np.isinf(oracle.hop_weight[u, t])

    def test_arrays_frozen(self):
        graph, estimate, _ = build_case(2)
        oracle = DistanceOracle.build(graph, estimate)
        with pytest.raises(ValueError):
            oracle.estimate[0, 0] = 1.0
        with pytest.raises(ValueError):
            oracle.next_hop[0, 0] = 1

    def test_direct_construction_does_not_freeze_caller_arrays(self):
        graph, estimate, _ = build_case(2, n=10)
        built = DistanceOracle.build(graph, estimate)
        mine_est = np.array(built.estimate)
        mine_hop = np.array(built.next_hop)
        mine_w = np.array(built.hop_weight)
        oracle = DistanceOracle(
            estimate=mine_est, next_hop=mine_hop, hop_weight=mine_w
        )
        with pytest.raises(ValueError):
            oracle.estimate[0, 0] = 1.0  # the oracle's handle is read-only
        mine_est[0, 0] = 1.0  # ...but the caller's own array stays writable

    def test_shape_mismatch_rejected(self):
        graph = WeightedGraph(3, [(0, 1, 1)])
        with pytest.raises(ValueError):
            DistanceOracle.build(graph, np.zeros((2, 2)))

    def test_query_many_broadcasts_and_validates(self):
        graph, estimate, _ = build_case(3)
        oracle = DistanceOracle.build(graph, estimate)
        sources = np.array([0, 1, 2])
        targets = np.array([5, 6, 7])
        out = oracle.query_many(sources, targets)
        assert np.array_equal(out, estimate[sources, targets])
        # one source against many targets
        fan = oracle.query_many([4], targets)
        assert np.array_equal(fan, estimate[4, targets])
        assert oracle.distance(0, 5) == estimate[0, 5]
        with pytest.raises(ValueError):
            oracle.query_many([0], [graph.n])
        with pytest.raises(ValueError):
            oracle.query_many([-1], [0])

    def test_k_nearest_matches_manual_argsort(self):
        graph, estimate, _ = build_case(4)
        oracle = DistanceOracle.build(graph, estimate)
        ids, dists = oracle.k_nearest(3, sources=[7])
        row = np.array(estimate[7])
        row[7] = np.inf  # include_self=False
        order = np.argsort(row, kind="stable")[:3]
        finite = np.isfinite(row[order])
        assert np.array_equal(ids[0][ids[0] >= 0], order[finite])
        assert np.array_equal(dists[0][ids[0] >= 0], row[order][finite])

    def test_k_nearest_include_self(self):
        graph, estimate, _ = build_case(5)
        oracle = DistanceOracle.build(graph, estimate)
        ids, dists = oracle.k_nearest(1, sources=[3], include_self=True)
        assert ids[0, 0] == 3  # zero self-distance wins, ID tie-break
        assert dists[0, 0] == 0.0


class TestPersistence:
    @pytest.mark.parametrize("encoding", ["b64", "list"])
    def test_round_trip_bit_identical(self, encoding):
        graph, estimate, _ = build_case(6)
        result = ApspSolver(SolverConfig(variant="spanner-only", seed=1)).solve(
            graph
        )
        oracle = DistanceOracle.build(graph, result)
        clone = DistanceOracle.from_json(
            oracle.to_json(matrix_encoding=encoding)
        )
        assert np.array_equal(clone.estimate, oracle.estimate)
        assert clone.estimate.dtype == np.float64
        assert np.array_equal(clone.next_hop, oracle.next_hop)
        assert clone.next_hop.dtype == np.int64
        # inf hop weights survive both codecs
        assert np.array_equal(clone.hop_weight, oracle.hop_weight)
        assert clone.meta == oracle.meta
        assert clone.content_key() == oracle.content_key()

    @pytest.mark.parametrize("encoding", ["b64", "list"])
    def test_save_load_file(self, tmp_path, encoding):
        graph, estimate, _ = build_case(7)
        oracle = DistanceOracle.build(graph, estimate)
        path = os.path.join(tmp_path, "oracle.json")
        oracle.save(path, matrix_encoding=encoding)
        clone = DistanceOracle.load(path)
        assert np.array_equal(clone.estimate, oracle.estimate)
        assert np.array_equal(clone.next_hop, oracle.next_hop)
        assert np.array_equal(clone.hop_weight, oracle.hop_weight)
        assert clone.meta == oracle.meta

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("encoding", ["b64", "list"])
    def test_round_trip_keeps_content_key(self, encoding, dtype):
        graph, estimate, _ = build_case(7)
        oracle = DistanceOracle.build(graph, estimate.astype(dtype))
        payload = json.loads(oracle.to_json(matrix_encoding=encoding))
        assert payload["content_key"] == oracle.content_key()
        clone = DistanceOracle.from_dict(payload)
        assert clone.content_key() == oracle.content_key()
        assert clone.to_dict(matrix_encoding=encoding)["content_key"] == (
            payload["content_key"]
        )

    def test_flipped_estimate_byte_fails_content_key(self):
        """A flip that still decodes to a valid distance is caught by the
        key alone."""
        graph, estimate, _ = build_case(7)
        oracle = DistanceOracle.build(graph, estimate)
        assert 0 < oracle.estimate[0, 5] < np.inf
        payload = oracle.to_dict(matrix_encoding="b64")
        raw = bytearray(base64.b64decode(payload["estimate"]["data"]))
        raw[5 * 8] ^= 1  # lowest mantissa byte of estimate[0, 5]
        payload["estimate"]["data"] = base64.b64encode(bytes(raw)).decode("ascii")
        with pytest.raises(ArtifactIntegrityError, match="content_key"):
            DistanceOracle.from_dict(payload)
        del payload["content_key"]  # keyless payloads load unchecked
        assert DistanceOracle.from_dict(payload).estimate[0, 5] != (
            oracle.estimate[0, 5]
        )

    def test_unknown_payload_rejected(self):
        with pytest.raises(ValueError):
            DistanceOracle.from_dict({"format": "something-else"})
        graph, estimate, _ = build_case(8)
        oracle = DistanceOracle.build(graph, estimate)
        with pytest.raises(ValueError):
            oracle.to_dict(matrix_encoding="csv")

    def test_newer_payload_version_rejected(self):
        graph, estimate, _ = build_case(8, n=10)
        payload = DistanceOracle.build(graph, estimate).to_dict()
        payload["version"] = 999
        with pytest.raises(ValueError, match="version"):
            DistanceOracle.from_dict(payload)


class TestTamperedArtifacts:
    """``from_dict`` rejects forwarding tables ``route_batch`` cannot trust."""

    CASES = [
        ("next_hop", -2),
        ("next_hop", 16),
        ("next_hop", 10**6),
        ("hop_weight", float("nan")),
        ("hop_weight", float("inf")),
        ("hop_weight", -1.0),
    ]

    @staticmethod
    def tampered_payload(encoding, name, value):
        graph, estimate, _ = build_case(8, n=16, p=0.3)
        oracle = DistanceOracle.build(graph, estimate)
        assert oracle.next_hop[0, 5] >= 0  # a live hop to corrupt
        arrays = {
            key: np.array(getattr(oracle, key))
            for key in ("estimate", "next_hop", "hop_weight")
        }
        arrays[name][0, 5] = value
        return DistanceOracle(**arrays).to_dict(matrix_encoding=encoding)

    @pytest.mark.parametrize("encoding", ["b64", "list"])
    @pytest.mark.parametrize("name, value", CASES)
    def test_rejected_in_from_dict(self, encoding, name, value):
        payload = self.tampered_payload(encoding, name, value)
        with pytest.raises(ArtifactIntegrityError, match=rf"{name}\[0, 5\]"):
            DistanceOracle.from_dict(payload)

    CORRUPT_ESTIMATES = [
        ((0, 5), -3.0, r"estimate\[0, 5\] = -3\.0 is not a distance"),
        ((0, 5), float("nan"), r"estimate\[0, 5\] = nan is not a distance"),
        ((4, 4), 7.0, r"estimate\[4, 4\] = 7\.0: the diagonal must be 0"),
    ]

    @pytest.mark.parametrize("encoding", ["b64", "list"])
    @pytest.mark.parametrize("cell, value, match", CORRUPT_ESTIMATES)
    def test_corrupt_estimate_rejected(self, encoding, cell, value, match):
        """Estimates no graph has never load: ``query_many`` would serve
        them as they are."""
        graph, estimate, _ = build_case(8, n=16, p=0.3)
        oracle = DistanceOracle.build(graph, estimate)
        if encoding == "list":
            # The list codec writes NaN as null: corrupt the payload itself.
            payload = oracle.to_dict(matrix_encoding=encoding)
            payload["estimate"][cell[0]][cell[1]] = value
        else:
            corrupt = np.array(oracle.estimate)
            corrupt[cell] = value
            payload = DistanceOracle(
                corrupt, oracle.next_hop, oracle.hop_weight
            ).to_dict(matrix_encoding=encoding)
        with pytest.raises(ArtifactIntegrityError, match=match):
            DistanceOracle.from_dict(payload)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("cell, value, match", CORRUPT_ESTIMATES)
    def test_corrupt_estimate_rejected_at_build(self, dtype, cell, value, match):
        """``build`` refuses what ``from_dict`` would refuse to load."""
        graph, estimate, _ = build_case(8, n=16, p=0.3)
        estimate[cell] = value
        with pytest.raises(ArtifactIntegrityError, match=match):
            DistanceOracle.build(graph, estimate.astype(dtype))

    @pytest.mark.parametrize("encoding", ["b64", "list"])
    def test_unreachable_pairs_build_save_and_load(self, tmp_path, encoding):
        """``inf`` entries are legal: an oracle of a disconnected graph
        survives build -> save -> load."""
        graph = erdos_renyi(24, 0.05, make_rng(9), connected=False)
        exact = exact_apsp(graph)
        assert np.isinf(exact).any()
        oracle = DistanceOracle.build(graph, exact)
        path = os.path.join(tmp_path, "oracle.json")
        oracle.save(path, matrix_encoding=encoding)
        clone = DistanceOracle.load(path)
        assert np.array_equal(clone.estimate, oracle.estimate)
        assert np.array_equal(clone.next_hop, oracle.next_hop)
        assert np.array_equal(clone.hop_weight, oracle.hop_weight)

    @pytest.mark.parametrize("encoding", ["b64", "list"])
    def test_dead_hop_with_finite_weight_rejected(self, encoding):
        graph, estimate, _ = build_case(8, n=16, p=0.3)
        oracle = DistanceOracle.build(graph, estimate)
        next_hop = np.array(oracle.next_hop)
        next_hop[0, 5] = -1
        payload = DistanceOracle(
            oracle.estimate, next_hop, oracle.hop_weight
        ).to_dict(matrix_encoding=encoding)
        with pytest.raises(ArtifactIntegrityError, match="live hops"):
            DistanceOracle.from_dict(payload)

    @staticmethod
    def clean_payload(encoding):
        graph, estimate, _ = build_case(8, n=16, p=0.3)
        return DistanceOracle.build(graph, estimate).to_dict(matrix_encoding=encoding)

    @pytest.mark.parametrize("name, dtype", [
        ("estimate", "<i8"), ("next_hop", "<f8"), ("hop_weight", "<i8"),
    ])
    def test_b64_dtype_other_than_declared_rejected(self, name, dtype):
        """Relabelled bytes of the right length would decode to garbage
        (an ``<i8`` estimate read as distances near 4.6e18)."""
        payload = self.clean_payload("b64")
        payload[name]["dtype"] = dtype
        with pytest.raises(ArtifactIntegrityError, match="not the declared"):
            DistanceOracle.from_dict(payload)

    @pytest.mark.parametrize("encoding", ["b64", "list"])
    def test_payload_n_other_than_shape_rejected(self, encoding):
        payload = self.clean_payload(encoding)
        payload["n"] = 99
        with pytest.raises(ArtifactIntegrityError, match="declares n = 99"):
            DistanceOracle.from_dict(payload)

    @pytest.mark.parametrize("name", ["estimate", "next_hop", "hop_weight"])
    def test_truncated_b64_record_rejected(self, name):
        payload = self.clean_payload("b64")
        raw = base64.b64decode(payload[name]["data"])
        payload[name]["data"] = base64.b64encode(raw[:-8]).decode("ascii")
        with pytest.raises(ArtifactIntegrityError, match="bytes; shape"):
            DistanceOracle.from_dict(payload)

    @pytest.mark.parametrize("name", ["estimate", "next_hop", "hop_weight"])
    def test_truncated_list_row_rejected(self, name):
        payload = self.clean_payload("list")
        payload[name][3] = payload[name][3][:-1]
        with pytest.raises(ArtifactIntegrityError, match="malformed list matrix"):
            DistanceOracle.from_dict(payload)

    def test_from_json_rejects_as_value_error(self):
        payload = self.tampered_payload("b64", "next_hop", -2)
        with pytest.raises(ValueError, match="outside"):
            DistanceOracle.from_json(json.dumps(payload))


class TestOracleStore:
    def test_get_or_build_memoises_by_content(self):
        graph, estimate, _ = build_case(9)
        twin = WeightedGraph.from_arrays(
            graph.n, graph.edge_u, graph.edge_v, graph.edge_w
        )
        store = OracleStore()
        first = store.get_or_build(graph, estimate)
        second = store.get_or_build(twin, estimate)  # same content, new object
        assert first is second
        assert store.hits == 1 and store.misses == 1 and len(store) == 1

    def test_variants_get_separate_entries(self):
        graph, estimate, _ = build_case(10)
        store = OracleStore()
        store.get_or_build(graph, estimate, variant="a")
        store.get_or_build(graph, estimate, variant="b")
        assert len(store) == 2
        assert store.peek(store.key_for(graph, estimate, "a")) is not None
        assert store.peek(store.key_for(graph, estimate, "missing")) is None

    def test_explicit_variant_lands_in_meta_and_key_round_trips(self):
        """Regression: the keying variant must be the artifact's identity.

        A bare-matrix build keyed under variant="x" must carry that label
        in its meta, so re-``put``-ing it (or a save/load clone) lands on
        the same key instead of the default one.
        """
        graph, estimate, _ = build_case(31, n=14)
        store = OracleStore()
        oracle = store.get_or_build(graph, estimate, variant="x")
        assert oracle.meta["variant"] == "x"
        key = store.key_for(graph, estimate, "x")
        clone = DistanceOracle.from_json(oracle.to_json())
        assert store.put(clone) == key
        assert len(store) == 1  # refreshed, not duplicated

    def test_different_seeds_get_separate_entries(self):
        """Regression: the estimate, not just the instance, is the identity.

        Two solves of the same graph by the same randomized variant with
        different seeds produce different estimates; the store must not
        serve the first seed's oracle for the second seed's result.
        """
        rng = make_rng(30)
        graph = erdos_renyi(28, 0.18, rng)
        first = ApspSolver(SolverConfig(variant="theorem11", seed=1)).solve(graph)
        second = ApspSolver(SolverConfig(variant="theorem11", seed=2)).solve(graph)
        assert not np.array_equal(first.estimate, second.estimate)
        store = OracleStore()
        oracle_1 = store.get_or_build(graph, first)
        oracle_2 = store.get_or_build(graph, second)
        assert oracle_1 is not oracle_2
        assert len(store) == 2 and store.misses == 2
        assert np.array_equal(oracle_2.estimate, second.estimate)

    def test_put_derives_key_from_meta(self):
        graph, estimate, _ = build_case(11)
        result = ApspSolver(SolverConfig(variant="spanner-only", seed=0)).solve(
            graph
        )
        oracle = DistanceOracle.build(graph, result)
        store = OracleStore()
        key = store.put(oracle)
        assert key == oracle_key(
            graph_content_hash(graph),
            "spanner-only",
            estimate_digest(result.estimate),
        )
        assert key == store.key_for(graph, result)
        assert store.peek(key) is oracle
        # a reloaded artifact re-enters under the same identity
        clone = DistanceOracle.from_json(oracle.to_json())
        assert store.put(clone) == key
        assert len(store) == 1

    def test_lru_eviction_by_entries(self):
        store = OracleStore(max_entries=2)
        graphs = [build_case(20 + i, n=12)[0] for i in range(3)]
        for graph in graphs:
            store.get_or_build(graph, exact_apsp(graph))
        assert len(store) == 2
        evicted_key = store.key_for(graphs[0], exact_apsp(graphs[0]))
        assert store.peek(evicted_key) is None
        kept_key = store.key_for(graphs[2], exact_apsp(graphs[2]))
        assert store.peek(kept_key) is not None

    def test_lru_eviction_by_bytes(self):
        graph, estimate, _ = build_case(12, n=16)
        oracle = DistanceOracle.build(graph, estimate)
        store = OracleStore(max_entries=8, max_bytes=oracle.nbytes + 1)
        store.put(oracle, key="a")
        store.put(oracle, key="b")  # second artifact busts the byte bound
        assert len(store) == 1
        assert store.nbytes <= oracle.nbytes + 1
        assert store.peek("b") is not None

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            OracleStore(max_entries=0)
        with pytest.raises(ValueError):
            OracleStore(max_bytes=0)


class TestRouteBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_differential_vs_greedy_route(self, seed):
        """Batch routes == per-call routes: paths, lengths, flags, hops."""
        graph, estimate, _ = build_case(seed)
        oracle = DistanceOracle.build(graph, estimate)
        rng = make_rng(100 + seed)
        sources = rng.integers(0, graph.n, size=120)
        targets = rng.integers(0, graph.n, size=120)
        batch = route_batch(oracle, sources, targets, record_paths=True)
        for i, (s, t) in enumerate(zip(sources, targets)):
            route = greedy_route(
                graph, estimate, int(s), int(t), table=oracle.next_hop
            )
            assert route.delivered == bool(batch.delivered[i])
            assert route.length == batch.lengths[i]
            assert route.hops == int(batch.hops[i])
            assert route.path == batch.path(i)

    @pytest.mark.parametrize("max_hops", [1, 3, 7])
    def test_differential_under_hop_budget(self, max_hops):
        graph, estimate, _ = build_case(5)
        oracle = DistanceOracle.build(graph, estimate)
        rng = make_rng(200)
        sources = rng.integers(0, graph.n, size=60)
        targets = rng.integers(0, graph.n, size=60)
        batch = route_batch(
            oracle, sources, targets, max_hops=max_hops, record_paths=True
        )
        for i, (s, t) in enumerate(zip(sources, targets)):
            route = greedy_route(
                graph, estimate, int(s), int(t),
                table=oracle.next_hop, max_hops=max_hops,
            )
            assert route.delivered == bool(batch.delivered[i])
            assert route.length == batch.lengths[i]
            assert route.path == batch.path(i)

    def test_statuses(self):
        # two components: 0-1-2 connected, 3 isolated; a doctored loop
        graph = WeightedGraph(4, [(0, 1, 1), (1, 2, 1)])
        exact = exact_apsp(graph)
        oracle = DistanceOracle.build(graph, exact)
        batch = route_batch(oracle, [0, 0, 0], [2, 3, 0], record_paths=True)
        assert batch.status[0] == STATUS_DELIVERED
        assert batch.status[1] == STATUS_DEAD_END
        assert batch.status[2] == STATUS_DELIVERED  # self-delivery, 0 hops
        assert batch.hops[2] == 0 and batch.lengths[2] == 0.0
        budget = route_batch(oracle, [0], [2], max_hops=1)
        assert budget.status[0] == STATUS_BUDGET
        counts = batch.outcome_counts()
        assert counts["delivered"] == 2 and counts["dead-end"] == 1

    def test_loop_status_and_length(self):
        graph = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        table = np.array([[0, 1, 1], [0, 1, 0], [0, 1, 2]], dtype=np.int64)
        matrix = graph.matrix()
        hop_weight = np.where(
            table >= 0,
            np.take_along_axis(matrix, np.maximum(table, 0), axis=1),
            np.inf,
        )
        oracle = DistanceOracle(
            estimate=exact_apsp(graph), next_hop=table, hop_weight=hop_weight
        )
        batch = route_batch(oracle, [0], [2], record_paths=True)
        assert batch.status[0] == STATUS_LOOP
        assert batch.path(0) == [0, 1, 0]
        assert batch.lengths[0] == pytest.approx(1.0)

    def test_empty_batch(self):
        graph, estimate, _ = build_case(13, n=10)
        oracle = DistanceOracle.build(graph, estimate)
        batch = route_batch(oracle, [], [], record_paths=True)
        assert batch.size == 0
        assert np.isnan(batch.delivery_rate)

    def test_paths_require_recording(self):
        graph, estimate, _ = build_case(14, n=10)
        oracle = DistanceOracle.build(graph, estimate)
        batch = route_batch(oracle, [0], [1])
        with pytest.raises(ValueError):
            batch.path(0)

    def test_out_of_range_rejected(self):
        graph, estimate, _ = build_case(15, n=10)
        oracle = DistanceOracle.build(graph, estimate)
        with pytest.raises(ValueError):
            route_batch(oracle, [0], [10])


class TestAuditStretch:
    def test_exact_oracle_audits_clean(self):
        graph, _, exact = build_case(16)
        oracle = DistanceOracle.build(graph, exact)
        audit = audit_stretch(oracle, exact, make_rng(16), samples=200)
        assert audit.attempts > 0
        assert audit.delivery_rate == 1.0
        assert audit.mean_stretch == pytest.approx(1.0)
        assert audit.max_stretch == pytest.approx(1.0)
        assert audit.attempts + audit.skipped_self + audit.skipped_unreachable \
            + audit.skipped_zero == audit.samples

    def test_matches_solver_factor_bound(self):
        rng = make_rng(17)
        graph = erdos_renyi(40, 0.15, rng)
        result = ApspSolver(SolverConfig(variant="small-diameter", seed=2)).solve(
            graph
        )
        oracle = result.oracle(graph)
        audit = audit_stretch(oracle, exact_apsp(graph), rng, samples=300)
        assert audit.delivered + audit.loops + audit.dead_ends \
            + audit.budget_exhausted == audit.attempts
        if audit.delivered:
            assert audit.max_stretch <= result.factor + 1e-9

    def test_no_attempts_is_nan_not_perfect(self):
        graph = WeightedGraph(2, [])
        oracle = DistanceOracle.build(graph, exact_apsp(graph))
        audit = audit_stretch(
            oracle, exact_apsp(graph), make_rng(18), samples=25
        )
        assert audit.attempts == 0
        assert np.isnan(audit.delivery_rate)
        assert np.isnan(audit.mean_stretch)

    def test_zero_distance_pairs_flagged(self):
        graph = WeightedGraph(2, [(0, 1, 1)])
        oracle = DistanceOracle.build(graph, exact_apsp(graph))
        audit = audit_stretch(
            oracle, np.zeros((2, 2)), make_rng(19), samples=40
        )
        assert audit.attempts == 0
        assert audit.skipped_zero > 0
