"""Tests for the array-native adjacency layer (repro.graphs.adjacency)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    WeightedGraph,
    batched_sssp,
    build_csr,
    erdos_renyi,
    exact_sssp,
    group_argmin,
    group_min_reduce,
    k_lightest_per_row,
    min_dedup_edges,
    sssp_on_edges,
)

from tests.helpers import make_rng


class TestCSRView:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_adjacency_lists(self, seed, directed):
        """csr() rows reproduce adjacency() exactly (content and order)."""
        rng = make_rng(seed)
        n = 30
        edges = [
            (int(u), int(v), int(w))
            for u, v, w in zip(
                rng.integers(0, n, 120),
                rng.integers(0, n, 120),
                rng.integers(1, 9, 120),
            )
            if u != v
        ]
        graph = WeightedGraph(n, edges, directed=directed)
        csr = graph.csr()
        adjacency = graph.adjacency()
        for u in range(n):
            ids, weights = csr.row(u)
            assert [(int(i), float(w)) for i, w in zip(ids, weights)] == [
                (int(i), float(w)) for i, w in adjacency[u]
            ]

    def test_rows_sorted_by_weight_then_id(self):
        graph = WeightedGraph(4, [(0, 1, 5), (0, 2, 5), (0, 3, 2)])
        ids, weights = graph.csr().row(0)
        assert ids.tolist() == [3, 1, 2]
        assert weights.tolist() == [2.0, 5.0, 5.0]

    def test_cached_and_read_only(self, rng):
        graph = erdos_renyi(16, 0.3, rng)
        csr = graph.csr()
        assert graph.csr() is csr
        with pytest.raises(ValueError):
            csr.weights[0] = -1

    def test_rows_of_concatenates_requested_rows(self, rng):
        graph = erdos_renyi(20, 0.3, rng)
        csr = graph.csr()
        nodes = np.array([3, 7, 7, 0])
        src, dst, wgt = csr.rows_of(nodes)
        expected_src, expected_dst, expected_wgt = [], [], []
        for u in nodes:
            ids, weights = csr.row(int(u))
            expected_src.extend([int(u)] * len(ids))
            expected_dst.extend(int(i) for i in ids)
            expected_wgt.extend(float(w) for w in weights)
        assert src.tolist() == expected_src
        assert dst.tolist() == expected_dst
        assert wgt.tolist() == expected_wgt

    def test_empty_graph(self):
        graph = WeightedGraph(5)
        csr = graph.csr()
        assert csr.num_entries == 0
        assert csr.degrees.tolist() == [0] * 5


class TestKLightestPerRow:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_k_shortest_out_edges(self, rng, k):
        graph = erdos_renyi(24, 0.3, rng)
        idx, wgt = k_lightest_per_row(graph.csr(), k)
        for u in range(graph.n):
            expected = graph.k_shortest_out_edges(u, k)
            got = [
                (int(i), float(w))
                for i, w in zip(idx[u], wgt[u])
                if i >= 0
            ]
            assert got == [(int(i), float(w)) for i, w in expected]

    def test_padding(self):
        graph = WeightedGraph(3, [(0, 1, 1)])
        idx, wgt = k_lightest_per_row(graph.csr(), 2)
        assert idx[2].tolist() == [-1, -1]
        assert np.all(np.isinf(wgt[2]))
        assert idx[0].tolist() == [1, -1]


class TestEdgeArrayHelpers:
    def test_min_dedup_keeps_lightest(self):
        src = np.array([0, 0, 1, 0])
        dst = np.array([1, 1, 2, 1])
        wgt = np.array([5.0, 2.0, 7.0, 9.0])
        s, d, w = min_dedup_edges(src, dst, wgt)
        assert s.tolist() == [0, 1]
        assert d.tolist() == [1, 2]
        assert w.tolist() == [2.0, 7.0]

    def test_group_argmin_tiebreak(self):
        keys = np.array([4, 4, 2, 2])
        weights = np.array([1.0, 1.0, 3.0, 2.0])
        tiebreak = np.array([9, 5, 1, 8])
        uniq, best = group_argmin(keys, weights, tiebreak)
        assert uniq.tolist() == [2, 4]
        # key 2: lighter weight wins; key 4: equal weight, smaller tiebreak.
        assert best.tolist() == [3, 1]

    def test_group_min_reduce(self):
        keys = np.array([1, 1, 0])
        weights = np.array([4.0, 3.0, 1.0])
        values = np.array([7, 2, 5])
        uniq, w, v = group_min_reduce(keys, weights, values)
        assert uniq.tolist() == [0, 1]
        assert w.tolist() == [1.0, 3.0]
        assert v.tolist() == [5, 2]

    def test_empty_inputs(self):
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0, dtype=np.float64)
        assert min_dedup_edges(empty_i, empty_i, empty_f)[0].size == 0
        assert group_argmin(empty_i, empty_f, empty_i)[0].size == 0


class TestSSSPHelpers:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sssp_on_edges_matches_exact(self, seed):
        rng = make_rng(seed)
        graph = erdos_renyi(25, 0.2, rng)
        src = np.concatenate([graph.edge_u, graph.edge_v])
        dst = np.concatenate([graph.edge_v, graph.edge_u])
        wgt = np.concatenate([graph.edge_w, graph.edge_w])
        dist = sssp_on_edges(graph.n, src, dst, wgt, [0, 7])
        assert np.allclose(dist[0], exact_sssp(graph, 0))
        assert np.allclose(dist[1], exact_sssp(graph, 7))

    def test_batched_blocks_are_isolated(self):
        """An edge in one block must not shorten paths in another."""
        # Block 0: path 0 -> 1 -> 2; block 1: only 0 -> 1.
        src = np.array([0, 1, 0])
        dst = np.array([1, 2, 1])
        wgt = np.array([1.0, 1.0, 1.0])
        bid = np.array([0, 0, 1])
        dist = batched_sssp(3, src, dst, wgt, bid, np.array([0, 0]))
        assert dist.shape == (2, 3)
        assert dist[0].tolist() == [0.0, 1.0, 2.0]
        assert dist[1][2] == np.inf
        assert dist[1][1] == 1.0

    def test_batched_dedup_guards_duplicate_records(self):
        """Duplicate (block, src, dst) records must min-merge, not sum."""
        src = np.array([0, 0])
        dst = np.array([1, 1])
        wgt = np.array([5.0, 3.0])
        bid = np.array([0, 0])
        dist = batched_sssp(2, src, dst, wgt, bid, np.array([0]))
        assert dist[0][1] == 3.0

    def test_build_csr_standalone(self):
        csr = build_csr(
            3,
            np.array([0, 1]),
            np.array([1, 2]),
            np.array([4.0, 2.0]),
            directed=False,
        )
        assert csr.degrees.tolist() == [1, 2, 1]
        ids, weights = csr.row(1)
        assert ids.tolist() == [2, 0]  # weight order: 2.0 before 4.0
        assert weights.tolist() == [2.0, 4.0]


# --------------------------------------------------------------------- #
# Frozen three-key lexsort bodies: the differential references for the
# single-key canonicalisation sorts.
# --------------------------------------------------------------------- #


def reference_min_dedup_edges(src, dst, wgt):
    order = np.lexsort((wgt, dst, src))
    src, dst, wgt = src[order], dst[order], wgt[order]
    first = np.ones(len(src), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    return src[first], dst[first], wgt[first]


def reference_group_argmin(keys, weights, tiebreak):
    order = np.lexsort((tiebreak, weights, keys))
    sorted_keys = keys[order]
    first = np.ones(len(sorted_keys), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return sorted_keys[first], order[first]


def reference_build_csr(n, edge_u, edge_v, edge_w, directed):
    if directed:
        src, dst, wgt = edge_u, edge_v, edge_w
    else:
        src = np.concatenate([edge_u, edge_v])
        dst = np.concatenate([edge_v, edge_u])
        wgt = np.concatenate([edge_w, edge_w])
    order = np.lexsort((dst, wgt, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order], wgt[order]


def tie_heavy_triples(rng, size, ids, values):
    """``(a, b, weight)`` columns drawn from tiny ranges: ties everywhere."""
    return (
        rng.integers(0, ids, size).astype(np.int64),
        rng.integers(0, ids, size).astype(np.int64),
        rng.integers(0, values, size).astype(np.float64),
    )


def edge_cases(rng):
    """Named ``(src, dst, wgt)`` inputs for the differential tests."""
    src, dst, wgt = tie_heavy_triples(rng, 400, 6, 3)
    order = np.lexsort((dst, src))
    uniq_src, uniq_dst, uniq_wgt = reference_min_dedup_edges(src, dst, wgt)
    block = rng.integers(0, 5, 300)
    bsrc, bdst, bwgt = tie_heavy_triples(rng, 300, 8, 4)
    return {
        "tie-heavy": (src, dst, wgt),
        "sorted-with-duplicates": (src[order], dst[order], wgt[order]),
        "canonical": (uniq_src, uniq_dst, uniq_wgt),
        "reverse-sorted": (
            src[order][::-1], dst[order][::-1], wgt[order][::-1]
        ),
        "single": (src[:1], dst[:1], wgt[:1]),
        "all-duplicates": (
            np.full(50, 3), np.full(50, 1), rng.integers(0, 3, 50).astype(float)
        ),
        "block-diagonal": (bsrc + block * 8, bdst + block * 8, bwgt),
        "negative-ids": (src - 4, dst - 9, wgt),
    }


class TestSingleKeyCanonicalisation:
    """The int64-key sorts pick exactly what the frozen lexsorts picked."""

    @pytest.mark.parametrize("seed", range(6))
    def test_min_dedup_matches_lexsort(self, seed):
        for name, (src, dst, wgt) in edge_cases(make_rng(seed)).items():
            got = min_dedup_edges(src, dst, wgt)
            want = reference_min_dedup_edges(src, dst, wgt)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), name

    @pytest.mark.parametrize("seed", range(6))
    def test_group_argmin_matches_lexsort(self, seed):
        rng = make_rng(seed)
        for name, (keys, _, weights) in edge_cases(rng).items():
            tiebreak = rng.integers(0, 3, len(keys))
            got = group_argmin(keys, weights, tiebreak)
            want = reference_group_argmin(keys, weights, tiebreak)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), name

    def test_random_tie_heavy_sweep(self):
        rng = make_rng(11)
        for _ in range(300):
            size = int(rng.integers(1, 60))
            src, dst, wgt = tie_heavy_triples(rng, size, 4, 3)
            tiebreak = rng.integers(0, 2, size)
            for g, w in zip(
                min_dedup_edges(src, dst, wgt),
                reference_min_dedup_edges(src, dst, wgt),
            ):
                assert np.array_equal(g, w)
            for g, w in zip(
                group_argmin(src, wgt, tiebreak),
                reference_group_argmin(src, wgt, tiebreak),
            ):
                assert np.array_equal(g, w)

    def test_nan_orders_last_like_lexsort(self):
        keys = np.array([0, 0, 1, 1, 2, 2])
        weights = np.array([np.nan, 2.0, np.nan, np.nan, 1.0, np.nan])
        tiebreak = np.array([0, 5, 4, 3, 1, 0])
        for g, w in zip(
            group_argmin(keys, weights, tiebreak),
            reference_group_argmin(keys, weights, tiebreak),
        ):
            assert np.array_equal(g, w)
        got = min_dedup_edges(keys, keys, weights)
        want = reference_min_dedup_edges(keys, keys, weights)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)

    @pytest.mark.parametrize("directed", [False, True])
    def test_build_csr_matches_lexsort(self, directed):
        rng = make_rng(3)
        src, dst, wgt = tie_heavy_triples(rng, 500, 40, 4)
        graph = WeightedGraph.from_arrays(
            40, src, dst, wgt, directed=directed, require_positive=False
        )
        csr = graph.csr()
        indptr, indices, weights = reference_build_csr(
            40, graph.edge_u, graph.edge_v, graph.edge_w, directed
        )
        assert np.array_equal(csr.indptr, indptr)
        assert np.array_equal(csr.indices, indices)
        assert np.array_equal(csr.weights, weights)

    def test_canonical_input_returned_without_copy(self):
        src, dst, wgt = np.array([0, 0, 2]), np.array([1, 3, 0]), np.ones(3)
        out = min_dedup_edges(src, dst, wgt)
        assert all(o is i for o, i in zip(out, (src, dst, wgt)))

    def test_key_overflow_raises(self):
        src = np.array([0, 2**40])
        with pytest.raises(OverflowError):
            min_dedup_edges(src, np.zeros(2, dtype=np.int64), np.ones(2))


class TestHelperInputContract:
    def test_lists_accepted(self):
        s, d, w = min_dedup_edges([1, 0, 1], [0, 1, 0], [2.0, 1.0, 0.5])
        assert (s.tolist(), d.tolist(), w.tolist()) == ([0, 1], [1, 0], [1.0, 0.5])
        uniq, best = group_argmin([1, 0, 1], [2.0, 1.0, 2.0], [0, 1, -1])
        assert (uniq.tolist(), best.tolist()) == ([0, 1], [1, 2])
        uniq, w, v = group_min_reduce([1, 1], [3.0, 3.0], [5, 4])
        assert (uniq.tolist(), w.tolist(), v.tolist()) == ([1], [3.0], [4])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: min_dedup_edges([0, 1], [1], [1.0, 2.0]),
            lambda: min_dedup_edges([[0, 1]], [[1, 0]], [[1.0, 2.0]]),
            lambda: group_argmin([0, 1, 1], [1.0, 2.0], [0, 0, 0]),
            lambda: group_argmin([0, 1], [1.0, 2.0], [[0, 0]]),
        ],
    )
    def test_mismatched_or_non_1d_rejected(self, call):
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            call()


class TestEdgeArrayOwnership:
    def test_graph_ignores_later_input_mutation(self):
        src, dst, wgt = np.array([0, 1]), np.array([1, 2]), np.array([4.0, 2.0])
        graph = WeightedGraph.from_arrays(3, src, dst, wgt)
        src[0], dst[0], wgt[0] = 2, 0, 9.0
        assert graph.edge_u.tolist() == [0, 1]
        assert graph.edge_v.tolist() == [1, 2]
        assert graph.edge_w.tolist() == [4.0, 2.0]

    def test_edge_arrays_read_only(self):
        graph = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
        for arr in (graph.edge_u, graph.edge_v, graph.edge_w):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_derived_graphs_do_not_share_buffers(self):
        graph = WeightedGraph(4, [(0, 1, 3), (1, 2, 5), (2, 3, 1)])
        derived = graph.subgraph_edges(np.ones(3, dtype=bool))
        for a, b in zip(
            (graph.edge_u, graph.edge_v, graph.edge_w),
            (derived.edge_u, derived.edge_v, derived.edge_w),
        ):
            assert not np.shares_memory(a, b)
