"""Tests for the spanner substrate (Lemma 7.1, Corollaries 7.1/7.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cclique import RoundLedger
from repro.graphs import (
    check_estimate,
    erdos_renyi,
    exact_apsp,
    grid_graph,
    heavy_tail_weights,
)
from repro.spanners import (
    approx_apsp_via_spanner,
    baswana_sengupta_spanner,
    bootstrap_b,
    cz22_spanner,
    logn_bootstrap,
    spanner_edge_bound,
)

SEEDS = [0, 1, 2, 3, 4]


def spanner_stretch(graph, spanner) -> float:
    base = exact_apsp(graph)
    sp = exact_apsp(spanner)
    mask = np.isfinite(base) & (base > 0)
    return float(np.max(sp[mask] / base[mask]))


class TestBaswanaSengupta:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_stretch_bound(self, seed, k):
        rng = np.random.default_rng(seed)
        graph = erdos_renyi(48, 0.25, rng)
        spanner = baswana_sengupta_spanner(graph, k, rng)
        assert spanner_stretch(graph, spanner) <= 2 * k - 1 + 1e-9

    @pytest.mark.parametrize("seed", SEEDS)
    def test_subgraph_property(self, seed):
        rng = np.random.default_rng(seed)
        graph = erdos_renyi(40, 0.3, rng)
        spanner = baswana_sengupta_spanner(graph, 3, rng)
        original = {(u, v): w for u, v, w in graph.edges()}
        for u, v, w in spanner.edges():
            assert (u, v) in original
            assert original[(u, v)] == w

    def test_k_one_returns_graph(self, rng):
        graph = erdos_renyi(20, 0.3, rng)
        spanner = baswana_sengupta_spanner(graph, 1, rng)
        assert spanner.num_edges == graph.num_edges

    @pytest.mark.parametrize("seed", SEEDS)
    def test_edge_count_reasonable(self, seed):
        """Sparse output: within the k * n^(1+1/k) expectation (x2 slack)."""
        rng = np.random.default_rng(seed)
        graph = erdos_renyi(64, 0.5, rng)
        k = 3
        spanner = baswana_sengupta_spanner(graph, k, rng)
        assert spanner.num_edges <= 2 * spanner_edge_bound(64, k)

    def test_edges_shrink_with_k(self):
        graph = erdos_renyi(96, 0.25, np.random.default_rng(6))
        sizes = [
            baswana_sengupta_spanner(graph, k, np.random.default_rng(k)).num_edges
            for k in (2, 6)
        ]
        assert sizes[1] <= sizes[0]

    def test_preserves_connectivity(self, rng):
        graph = grid_graph(6, rng)
        spanner = baswana_sengupta_spanner(graph, 3, rng)
        sp = exact_apsp(spanner)
        assert np.all(np.isfinite(sp))

    def test_weighted_graphs(self, rng):
        graph = erdos_renyi(40, 0.3, rng, weights=heavy_tail_weights())
        spanner = baswana_sengupta_spanner(graph, 2, rng)
        assert spanner_stretch(graph, spanner) <= 3 + 1e-9

    def test_directed_rejected(self, rng):
        from repro.graphs import WeightedGraph

        graph = WeightedGraph(3, [(0, 1, 1)], directed=True)
        with pytest.raises(ValueError):
            baswana_sengupta_spanner(graph, 2, rng)

    def test_invalid_k(self, rng):
        graph = erdos_renyi(10, 0.5, rng)
        with pytest.raises(ValueError):
            baswana_sengupta_spanner(graph, 0, rng)


class TestCZ22Interface:
    def test_charges_constant_rounds(self, rng):
        graph = erdos_renyi(32, 0.3, rng)
        ledger = RoundLedger(32)
        result = cz22_spanner(graph, 2, rng, ledger=ledger)
        assert ledger.total_rounds > 0
        assert result.stretch_bound == 3.0

    def test_eps_variant_bound(self, rng):
        graph = erdos_renyi(32, 0.3, rng)
        result = cz22_spanner(graph, 2, rng, eps=0.5)
        assert result.stretch_bound == pytest.approx(1.5 * 3)

    def test_negative_eps_rejected(self, rng):
        graph = erdos_renyi(16, 0.3, rng)
        with pytest.raises(ValueError):
            cz22_spanner(graph, 2, rng, eps=-0.1)


class TestSpannerApproxAPSP:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_corollary71_guarantee(self, seed):
        rng = np.random.default_rng(seed)
        graph = erdos_renyi(48, 0.2, rng)
        exact = exact_apsp(graph)
        result = approx_apsp_via_spanner(graph, b=2, rng=rng, eps=0.1)
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9

    def test_bootstrap_b_schedule(self):
        assert bootstrap_b(2) == 2  # floor
        assert bootstrap_b(1 << 30) == 10

    @pytest.mark.parametrize("seed", SEEDS)
    def test_corollary72_logn_bootstrap(self, seed):
        rng = np.random.default_rng(seed)
        graph = erdos_renyi(64, 0.1, rng)
        exact = exact_apsp(graph)
        ledger = RoundLedger(64)
        result = logn_bootstrap(graph, rng, ledger=ledger)
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9
        assert ledger.total_rounds > 0
        for alpha in (0.5, 2.0):
            other = logn_bootstrap(graph, rng, alpha=alpha)
            report = check_estimate(exact, other.estimate)
            assert report.sound, alpha
            assert report.max_stretch <= other.factor + 1e-9, alpha

    def test_bootstrap_factor_is_logarithmic(self):
        """(1+eps)(2b-1) <= alpha log2 n for n past the small-graph floor."""
        import math

        for n in (4096, 1 << 16, 1 << 20):
            b = bootstrap_b(n)
            assert 1.1 * (2 * b - 1) <= math.log2(n)


class TestDropPairBufferReuse:
    """Regression: the per-level ``drop_pair`` mask is hoisted out of the
    cluster loop and refilled in place; construction must stay
    bit-identical to the allocate-per-iteration formulation."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_bit_identical_edges(self, seed):
        graph = erdos_renyi(48, 0.25, np.random.default_rng(seed))
        first = baswana_sengupta_spanner(graph, 3, np.random.default_rng(seed + 100))
        second = baswana_sengupta_spanner(graph, 3, np.random.default_rng(seed + 100))
        assert sorted(first.edges()) == sorted(second.edges())

    def test_mask_state_does_not_leak_across_calls(self):
        # Two different-k constructions back to back; a stale mask from
        # the first run must not suppress edges in the second.
        graph = erdos_renyi(40, 0.3, np.random.default_rng(9))
        before = sorted(
            baswana_sengupta_spanner(graph, 2, np.random.default_rng(1)).edges()
        )
        baswana_sengupta_spanner(graph, 3, np.random.default_rng(2))
        after = sorted(
            baswana_sengupta_spanner(graph, 2, np.random.default_rng(1)).edges()
        )
        assert before == after
