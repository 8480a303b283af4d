"""Tests for the min-plus algebra and the filtered-power machinery (Sec 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import erdos_renyi, exact_apsp
from repro.semiring import (
    INF,
    RowSparse,
    density,
    embed,
    filter_rows,
    filtered_hop_power,
    hop_power_row_sparse,
    join_candidates,
    k_smallest_in_rows,
    minplus,
    minplus_power,
    row_sparse_from_dense,
    rows_agree_on_k_smallest,
    sparse_minplus,
    sparse_minplus_join,
)
from repro.cclique import RoundLedger


def random_adjacency(rng, n=12, p=0.4):
    m = np.full((n, n), INF)
    np.fill_diagonal(m, 0.0)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                m[i, j] = float(rng.integers(1, 20))
    return m


class TestMinplus:
    def test_identity(self):
        n = 6
        ident = np.full((n, n), INF)
        np.fill_diagonal(ident, 0.0)
        a = np.arange(n * n, dtype=float).reshape(n, n)
        assert np.allclose(minplus(ident, a), a)
        assert np.allclose(minplus(a, ident), a)

    def test_associativity(self, rng):
        a = random_adjacency(rng)
        b = random_adjacency(rng)
        c = random_adjacency(rng)
        left = minplus(minplus(a, b), c)
        right = minplus(a, minplus(b, c))
        assert np.allclose(left, right)

    def test_power_matches_repeated_product(self, rng):
        a = random_adjacency(rng, n=8)
        p4 = minplus_power(a, 4)
        manual = minplus(minplus(minplus(a, a), a), a)
        assert np.allclose(p4, manual)

    def test_power_requires_zero_diagonal(self):
        a = np.ones((3, 3))
        with pytest.raises(ValueError):
            minplus_power(a, 2)

    def test_power_is_hop_limited_distance(self, rng):
        g = erdos_renyi(16, 0.3, rng)
        full = minplus_power(g.matrix(), 16)
        assert np.allclose(full, exact_apsp(g))

    def test_inner_dimension_check(self):
        with pytest.raises(ValueError):
            minplus(np.zeros((2, 3)), np.zeros((2, 3)))


class TestKSmallest:
    def test_values_and_ids(self):
        m = np.array([[0.0, 5.0, 2.0, 2.0], [1.0, 0.0, INF, 3.0]])
        idx, val = k_smallest_in_rows(m, 3)
        # Row 0: 0 (id 0), 2 (id 2 beats id 3 on tie), 2 (id 3).
        assert idx[0].tolist() == [0, 2, 3]
        assert val[0].tolist() == [0.0, 2.0, 2.0]

    def test_id_tie_break_exhaustive(self):
        m = np.array([[7.0, 7.0, 7.0, 7.0]])
        idx, _ = k_smallest_in_rows(m, 2)
        assert idx[0].tolist() == [0, 1]

    def test_inf_padding(self):
        m = np.array([[0.0, INF, INF]])
        idx, val = k_smallest_in_rows(m, 3)
        assert idx[0].tolist() == [0, -1, -1]
        assert val[0, 0] == 0.0
        assert np.all(np.isinf(val[0, 1:]))

    def test_k_larger_than_n(self):
        m = np.array([[0.0, 1.0]])
        idx, val = k_smallest_in_rows(m, 5)
        assert idx.shape == (1, 5)
        assert idx[0].tolist() == [0, 1, -1, -1, -1]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            k_smallest_in_rows(np.zeros((2, 2)), 0)

    def test_filter_rows_keeps_k_entries(self, rng):
        m = random_adjacency(rng, n=10)
        f = filter_rows(m, 3)
        assert np.all(np.isfinite(f).sum(axis=1) <= 3)
        # kept entries agree with the original
        mask = np.isfinite(f)
        assert np.allclose(f[mask], m[mask])


class TestRowSparse:
    def test_roundtrip(self, rng):
        m = random_adjacency(rng, n=10)
        sparse = row_sparse_from_dense(m, 4)
        dense = sparse.to_dense()
        assert np.allclose(dense, filter_rows(m, 4))

    def test_density(self, rng):
        m = random_adjacency(rng, n=10, p=1.0)
        sparse = row_sparse_from_dense(m, 4)
        assert sparse.density() == 4.0

    def test_hop_power_matches_dense_power(self, rng):
        """Ā^h via row-sparse Bellman-Ford == dense min-plus power of Ā."""
        m = random_adjacency(rng, n=10)
        k, h = 4, 3
        filtered = filter_rows(m, k)
        np.fill_diagonal(filtered, 0.0)
        dense_power = minplus_power(filtered, h)
        sparse_power = hop_power_row_sparse(row_sparse_from_dense(m, k), h)
        assert np.allclose(dense_power, sparse_power)

    def test_hop_power_requires_square(self):
        sparse = RowSparse(
            indices=np.array([[0]]), values=np.array([[1.0]]), n_cols=3
        )
        with pytest.raises(ValueError):
            hop_power_row_sparse(sparse, 2)


class TestLemma55:
    """Filtered powers agree with true powers on the k smallest entries."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_filtered_equals_unfiltered_on_k_smallest(self, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi(20, 0.3, rng)
        m = g.matrix()
        k, h = 4, 3
        true_power = minplus_power(m, h)
        filtered_power = filtered_hop_power(m, h, k)
        assert rows_agree_on_k_smallest(true_power, filtered_power, k)

    def test_directed_case(self):
        rng = np.random.default_rng(9)
        m = random_adjacency(rng, n=15, p=0.3)
        k, h = 3, 2
        true_power = minplus_power(m, h)
        filtered_power = filtered_hop_power(m, h, k)
        assert rows_agree_on_k_smallest(true_power, filtered_power, k)


class TestSparsePricing:
    def test_density_measured(self):
        m = np.full((4, 4), INF)
        m[0, 0] = 1.0
        m[1, 2] = 2.0
        assert density(m) == 0.5

    def test_sparse_minplus_charges_ledger(self, rng):
        a = random_adjacency(rng, n=8)
        ledger = RoundLedger(8)
        result = sparse_minplus(a, a, ledger=ledger)
        assert result.rounds_charged >= 1
        assert ledger.total_rounds == result.rounds_charged
        assert np.allclose(result.product, minplus(a, a))

    def test_clique_n_normalization(self, rng):
        a = random_adjacency(rng, n=8)
        wide = sparse_minplus(a, a, clique_n=64)
        narrow = sparse_minplus(a, a, clique_n=8)
        assert wide.rho_s < narrow.rho_s

    @staticmethod
    def _random_entries(rng, rows, cols, count):
        """Entry triples with repeated positions, inf values and fractions."""
        vals = rng.uniform(0.0, 5.0, count)
        vals[rng.random(count) < 0.1] = INF
        return (
            rng.integers(0, rows, count),
            rng.integers(0, cols, count),
            vals,
        )

    @staticmethod
    def _densify(entries, shape):
        out = np.full(shape, INF)
        np.minimum.at(out, entries[:2], entries[2])
        return out

    @pytest.mark.parametrize("clique_n", [None, 40])
    def test_join_matches_dense_product(self, rng, clique_n):
        a, b, c = 7, 30, 9
        s = self._random_entries(rng, a, b, 60)
        t = self._random_entries(rng, b, c, 80)
        dense = sparse_minplus(
            self._densify(s, (a, b)), self._densify(t, (b, c)), clique_n=clique_n
        )
        joined = sparse_minplus_join(s, t, (a, b, c), clique_n=clique_n)
        assert np.array_equal(joined.product, dense.product)
        assert (joined.rho_s, joined.rho_t, joined.rho_st) == (
            dense.rho_s,
            dense.rho_t,
            dense.rho_st,
        )

    def test_join_blocks_and_ledger(self, rng, monkeypatch):
        from repro.semiring import sparse

        s = self._random_entries(rng, 5, 20, 50)
        t = self._random_entries(rng, 20, 6, 70)
        whole = sparse_minplus_join(s, t, (5, 20, 6), ledger=RoundLedger(20))
        monkeypatch.setattr(sparse, "JOIN_BLOCK", 3)
        ledger = RoundLedger(20)
        blocked = sparse_minplus_join(s, t, (5, 20, 6), ledger=ledger)
        assert np.array_equal(blocked.product, whole.product)
        assert ledger.total_rounds == blocked.rounds_charged >= 1

    def test_join_candidates_counts_run_lengths(self):
        t_rows = np.array([0, 0, 2, 2, 2])
        assert join_candidates(np.array([0, 1, 2, 2]), t_rows, 3) == 2 + 0 + 3 + 3

    def test_join_empty_factor(self):
        empty = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
        t = (np.array([0]), np.array([1]), np.array([1.0]))
        result = sparse_minplus_join(empty, t, (2, 3, 2))
        assert result.product.shape == (2, 2)
        assert np.all(np.isinf(result.product))
        assert result.rho_s == 0.0

    def test_embed(self):
        small = np.array([[1.0, 2.0], [3.0, 4.0]])
        big = embed(small, 4)
        assert big.shape == (4, 4)
        assert np.allclose(big[:2, :2], small)
        assert np.all(np.isinf(big[2:, :]))

    def test_embed_too_large(self):
        with pytest.raises(ValueError):
            embed(np.zeros((5, 5)), 4)
