"""Tests for the exact dense min-plus product (repro.semiring.kernels).

The load-bearing contract: :func:`minplus` is **bit-identical** to the
float64 broadcast formula on arbitrary inputs — integer-valued,
fractional, inf-laden, rectangular, and values that force each of its
representations (float32, int64 with an inf sentinel, float64).
Downstream, the ``k_smallest_in_rows`` ID tie-break must therefore match
the reference as well.

Also covered: which representation :func:`resolve_kernel` picks, the
``REPRO_MINPLUS_BUDGET`` trust boundary, the exactness fix of
``hop_limited_distances``, ``out=`` buffer semantics, the ping-pong
buffer reuse of ``minplus_power``, the gathered row-sparse product, and
the content-hash exact-distance oracle cache.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.graphs import (
    ExactOracleCache,
    erdos_renyi,
    exact_apsp,
    graph_content_hash,
    hop_limited_distances,
    minplus_product,
    minplus_square,
)
from repro.semiring import (
    MemoryBudgetError,
    hop_merge_row_sparse,
    hop_power_row_sparse,
    k_smallest_in_rows,
    minplus,
    minplus_gather,
    minplus_power,
    resolve_kernel,
    row_sparse_from_dense,
)

from tests.helpers import make_rng


def reference(a, b):
    """The float64 broadcast formula every product must reproduce."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return (a[:, :, None] + b[None]).min(axis=1)


def random_matrix(rng, shape, *, integral, inf_frac=0.25, lo=1, hi=100):
    if integral:
        out = rng.integers(lo, hi, shape).astype(np.float64)
    else:
        out = rng.uniform(lo, hi, shape)
    out[rng.random(shape) < inf_frac] = np.inf
    return out


class TestKernelEquivalence:
    """The product must be bit-identical to the reference."""

    @pytest.mark.parametrize("integral", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 17, 64, 130])
    def test_square_random(self, integral, n):
        rng = make_rng(1000 * n + integral)
        a = random_matrix(rng, (n, n), integral=integral)
        b = random_matrix(rng, (n, n), integral=integral)
        assert np.array_equal(minplus(a, b), reference(a, b))

    @pytest.mark.parametrize(
        "shape", [(1, 5, 3), (33, 9, 70), (70, 300, 5), (257, 40, 259)]
    )
    def test_rectangular(self, shape):
        rows, inner, cols = shape
        rng = make_rng(sum(shape))
        a = random_matrix(rng, (rows, inner), integral=True)
        b = random_matrix(rng, (inner, cols), integral=False, inf_frac=0.5)
        assert np.array_equal(minplus(a, b), reference(a, b))

    def test_all_inf_rows_and_columns(self):
        rng = make_rng(3)
        for hi in (100, 2**30, 2**55):  # float32, int64, float64
            a = random_matrix(rng, (20, 20), integral=True, hi=hi)
            a[7, :] = np.inf
            b = random_matrix(rng, (20, 20), integral=True, hi=hi)
            b[:, 11] = np.inf
            got = minplus(a, b)
            assert np.array_equal(got, reference(a, b)), hi
            assert np.all(np.isinf(got[7, :])) and np.all(np.isinf(got[:, 11]))
            # A factor with no finite entry at all.
            assert np.all(np.isinf(minplus(np.full((20, 20), np.inf), b)))

    def test_negative_entries(self):
        rng = make_rng(4)
        a = random_matrix(rng, (25, 25), integral=True, lo=-50, hi=50)
        b = random_matrix(rng, (25, 25), integral=True, lo=-50, hi=50)
        assert np.array_equal(minplus(a, b), reference(a, b))

    @pytest.mark.parametrize(
        "magnitude, special, representation",
        [
            (2**20, None, "float32"),
            (2**30, None, "int64"),  # inf -> sentinel
            (2**55, None, "float64"),  # sums would round in any narrower type
            (2**20, 0.5, "float64"),  # not an integer
            # The int64 sentinel would turn -inf (and NaN) into +inf.
            (2**30, -np.inf, "float64"),
            (2**30, np.nan, "float64"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # -inf + inf
    def test_value_range_paths(self, magnitude, special, representation):
        rng = make_rng(int(np.log2(magnitude)))
        a = random_matrix(rng, (30, 30), integral=True, lo=1, hi=magnitude)
        b = random_matrix(rng, (30, 30), integral=True, lo=1, hi=magnitude)
        if special is not None:
            a[0, 1] = special
        assert resolve_kernel(a, b) == representation
        assert resolve_kernel(b, a) == representation
        assert np.array_equal(minplus(a, b), reference(a, b), equal_nan=True)
        assert np.array_equal(minplus(b, a), reference(b, a), equal_nan=True)

    def test_k_smallest_tie_break_downstream(self):
        """The ID tie-break of Section 5 survives the product bit-for-bit."""
        rng = make_rng(5)
        # Small weight range forces many ties in the product.
        a = random_matrix(rng, (60, 60), integral=True, lo=1, hi=5)
        idx_ref, val_ref = k_smallest_in_rows(reference(a, a), 7)
        idx, val = k_smallest_in_rows(minplus(a, a), 7)
        assert np.array_equal(idx, idx_ref)
        assert np.array_equal(val, val_ref)

    def test_empty_inner_dimension_is_semiring_zero(self):
        out = minplus(np.empty((3, 0)), np.empty((0, 4)))
        assert out.shape == (3, 4) and np.all(np.isinf(out))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            minplus(np.zeros((2, 3)), np.zeros((2, 3)))


def _budget_site_minplus():
    a = np.ones((4, 4))
    minplus(a, a)


def _budget_site_gather():
    minplus_gather(np.ones((4, 2)), np.zeros((4, 2), dtype=np.int64),
                   np.ones((4, 4)))


def _budget_site_hop_merge():
    matrix = np.ones((4, 4))
    np.fill_diagonal(matrix, 0.0)
    hop_merge_row_sparse(row_sparse_from_dense(matrix, 2), 2)


class TestMemoryBudgetEnv:
    """``REPRO_MINPLUS_BUDGET`` is checked once, the same way at every site."""

    SITES = {
        "minplus": _budget_site_minplus,
        "minplus_gather": _budget_site_gather,
        "hop_merge_row_sparse": _budget_site_hop_merge,
    }

    @pytest.mark.parametrize("site", sorted(SITES))
    @pytest.mark.parametrize("raw", ["abc", "1e6", "0", "-5"])
    def test_bad_values_rejected(self, monkeypatch, site, raw):
        monkeypatch.setenv("REPRO_MINPLUS_BUDGET", raw)
        with pytest.raises(MemoryBudgetError) as caught:
            self.SITES[site]()
        assert isinstance(caught.value, ValueError)
        assert "REPRO_MINPLUS_BUDGET" in str(caught.value)
        assert repr(raw) in str(caught.value)

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_positive_integer_accepted(self, monkeypatch, site):
        monkeypatch.setenv("REPRO_MINPLUS_BUDGET", "1")
        self.SITES[site]()


class TestPowersAndGather:
    def test_minplus_power_matches_iterated_product(self):
        rng = make_rng(6)
        a = random_matrix(rng, (24, 24), integral=True)
        np.fill_diagonal(a, 0.0)
        expected = a
        for h in range(2, 8):
            expected = reference(expected, a)
            assert np.array_equal(minplus_power(a, h), expected), h

    def test_power_requires_zero_diagonal(self):
        with pytest.raises(ValueError, match="zero diagonal"):
            minplus_power(np.ones((3, 3)), 2)

    def test_hop_limited_is_exact_not_power_of_two(self):
        """The historical overshoot bug: h=3 must not include 4-hop paths."""
        n = 5
        path = np.full((n, n), np.inf)
        np.fill_diagonal(path, 0.0)
        for i in range(n - 1):
            path[i, i + 1] = path[i + 1, i] = 1.0
        three = hop_limited_distances(path, 3)
        four = hop_limited_distances(path, 4)
        assert np.isinf(three[0, 4])  # 4 hops away: unreachable in 3
        assert four[0, 4] == 4.0
        # Monotone in h: more hops never lengthens a distance.
        assert np.all(four <= three)

    def test_hop_limited_agrees_with_dijkstra_at_n_hops(self, rng):
        graph = erdos_renyi(24, 0.2, rng)
        full = hop_limited_distances(graph.matrix(), graph.n)
        assert np.allclose(full, exact_apsp(graph))

    def test_minplus_gather_matches_dense_formula(self):
        rng = make_rng(7)
        dense = random_matrix(rng, (30, 30), integral=True)
        weights = random_matrix(rng, (30, 4), integral=True)
        indices = rng.integers(0, 30, (30, 4))
        expected = (weights[:, :, None] + dense[indices, :]).min(axis=1)
        assert np.array_equal(minplus_gather(weights, indices, dense), expected)
        # A tiny budget forces many row blocks; result must not change.
        tight = minplus_gather(weights, indices, dense, memory_budget=1)
        assert np.array_equal(tight, expected)

    def test_hop_power_row_sparse_unchanged_by_gather_refactor(self, rng):
        matrix = random_matrix(rng, (40, 40), integral=True, inf_frac=0.5)
        np.fill_diagonal(matrix, 0.0)
        sparse = row_sparse_from_dense(matrix, 6)
        got = hop_power_row_sparse(sparse, 3)
        # Direct recurrence over the filtered dense matrix.
        filtered = sparse.to_dense()
        np.fill_diagonal(filtered, 0.0)
        expected = filtered
        for _ in range(2):
            expected = np.minimum(expected, reference(filtered, expected))
        assert np.array_equal(got, expected)


class TestOutBuffer:
    def test_dispatcher_writes_into_out(self):
        rng = make_rng(31)
        for hi in (100, 2**30, 2**55):  # float32, int64, float64
            a = random_matrix(rng, (30, 30), integral=True, hi=hi)
            out = np.empty((30, 30))
            result = minplus(a, a, out=out)
            assert result is out, hi
            assert np.array_equal(out, reference(a, a)), hi

    def test_out_validation(self):
        a = np.zeros((4, 4))
        with pytest.raises(ValueError, match="shape"):
            minplus(a, a, out=np.empty((3, 4)))
        with pytest.raises(ValueError, match="float64"):
            minplus(a, a, out=np.empty((4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="share memory"):
            minplus(a, a, out=a)
        frozen = np.empty((4, 4))
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            minplus(a, a, out=frozen)


class TestMinplusPowerPingPong:
    @pytest.mark.parametrize("exponent", [1, 2, 3, 5, 8])
    def test_matches_iterated_product(self, exponent):
        rng = make_rng(41 + exponent)
        a = random_matrix(rng, (24, 24), integral=True)
        np.fill_diagonal(a, 0.0)
        expected = a
        for _ in range(exponent - 1):
            expected = reference(expected, a)
        assert np.array_equal(minplus_power(a, exponent), expected)

    def test_input_not_mutated(self):
        rng = make_rng(43)
        a = random_matrix(rng, (20, 20), integral=True)
        np.fill_diagonal(a, 0.0)
        snapshot = a.copy()
        minplus_power(a, 5)
        assert np.array_equal(a, snapshot)


class TestExactOracleCache:
    def test_content_hash_ignores_construction_order(self):
        g1 = erdos_renyi(20, 0.3, make_rng(11))
        g2 = erdos_renyi(20, 0.3, make_rng(11))
        assert graph_content_hash(g1) == graph_content_hash(g2)
        g3 = erdos_renyi(20, 0.3, make_rng(12))
        assert graph_content_hash(g1) != graph_content_hash(g3)

    def test_cache_hits_across_equal_graphs(self):
        cache = ExactOracleCache()
        g1 = erdos_renyi(20, 0.3, make_rng(11))
        g2 = erdos_renyi(20, 0.3, make_rng(11))
        d1 = cache.get(g1)
        d2 = cache.get(g2)
        assert d1 is d2
        assert (cache.hits, cache.misses) == (1, 1)
        assert np.array_equal(d1, exact_apsp(g1))

    def test_cached_matrix_is_read_only(self):
        cache = ExactOracleCache()
        dist = cache.get(erdos_renyi(10, 0.4, make_rng(1)))
        with pytest.raises(ValueError):
            dist[0, 0] = 5.0

    def test_lru_eviction(self):
        cache = ExactOracleCache(max_entries=2)
        graphs = [erdos_renyi(10, 0.4, make_rng(s)) for s in range(3)]
        for g in graphs:
            cache.get(g)
        assert len(cache) == 2
        cache.get(graphs[0])  # evicted -> recomputed
        assert cache.misses == 4

    def test_byte_bound_eviction(self):
        # Each 10-node oracle is 800 bytes; a 2000-byte budget holds two.
        cache = ExactOracleCache(max_entries=100, max_bytes=2000)
        graphs = [erdos_renyi(10, 0.4, make_rng(s)) for s in range(4)]
        for g in graphs:
            cache.get(g)
        assert len(cache) == 2
        assert cache.nbytes <= 2000

    def test_oversized_single_entry_is_kept(self):
        cache = ExactOracleCache(max_entries=4, max_bytes=10)
        graph = erdos_renyi(10, 0.4, make_rng(0))
        first = cache.get(graph)
        assert len(cache) == 1  # kept despite exceeding max_bytes alone
        assert cache.get(graph) is first  # and it still hits

    def test_clear(self):
        cache = ExactOracleCache()
        cache.get(erdos_renyi(10, 0.4, make_rng(1)))
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0
        assert cache.nbytes == 0

    def test_peek_never_computes(self):
        cache = ExactOracleCache()
        graph = erdos_renyi(12, 0.4, make_rng(3))
        assert cache.peek(graph) is None
        assert (cache.hits, cache.misses) == (0, 0)
        dist = cache.get(graph)
        assert cache.peek(graph) is dist
        assert cache.hits == 1

    def test_exact_sssp_served_from_cached_apsp(self):
        """Once the default oracle holds a graph's APSP, exact_sssp serves
        the row from the cache (no recomputation) as a writable copy."""
        from repro.graphs import DEFAULT_ORACLE, cached_exact_apsp, exact_sssp

        DEFAULT_ORACLE.clear()
        graph = erdos_renyi(18, 0.3, make_rng(21))
        fresh = exact_sssp(graph, 4).copy()  # nothing cached yet
        full = cached_exact_apsp(graph)
        hits_before = DEFAULT_ORACLE.hits
        served = exact_sssp(graph, 4)
        assert DEFAULT_ORACLE.hits == hits_before + 1  # came from the cache
        assert np.array_equal(served, fresh)
        assert np.array_equal(served, full[4])
        served[0] = -1.0  # a writable copy: must not touch the shared oracle
        assert not np.shares_memory(served, full)
        assert np.array_equal(cached_exact_apsp(graph), full)
        DEFAULT_ORACLE.clear()

    def test_thread_safety_smoke(self):
        cache = ExactOracleCache()
        graph = erdos_renyi(24, 0.2, make_rng(2))
        results = []

        def work():
            results.append(cache.get(graph))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(np.array_equal(r, results[0]) for r in results)
        assert len(cache) == 1


class TestBackCompatAliases:
    def test_graphs_reexports_are_the_dispatcher(self):
        assert minplus_product is minplus
        rng = make_rng(8)
        a = random_matrix(rng, (12, 12), integral=True)
        assert np.array_equal(minplus_square(a), reference(a, a))
