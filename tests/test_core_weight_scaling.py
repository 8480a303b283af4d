"""Tests for the weight scaling lemma (Section 8.1, Lemma 8.1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    assemble_eta,
    build_knearest_hopset,
    build_scaled_graph,
    clip_estimate,
    plan_scaling,
    verify_scaling_guarantees,
)
from repro.graphs import (
    WeightedGraph,
    erdos_renyi,
    exact_apsp,
    heavy_tail_weights,
    polynomial_weights,
    weighted_diameter_from_matrix,
)
from repro.semiring import minplus_power

from tests.helpers import make_rng

SEEDS = [0, 1, 2]


def heavy_graph(seed: int, n: int = 30):
    rng = make_rng(seed)
    return erdos_renyi(n, 0.15, rng, weights=polynomial_weights(n, 2.5))


def reference_scaled_graph(graph, i, plan, materialize_clique=False):
    """The frozen triple-list construction of ``G_i``."""
    x = float(2**i)
    cap = plan.cap
    edges = [(u, v, min(math.ceil(w / x), cap)) for u, v, w in graph.edges()]
    if materialize_clique:
        present = {(min(u, v), max(u, v)) for u, v, _ in edges}
        for u in range(graph.n):
            for v in range(u + 1, graph.n):
                if (u, v) not in present:
                    edges.append((u, v, cap))
        edges.extend((u, v, cap) for (u, v) in present)
    return WeightedGraph(
        graph.n,
        edges,
        directed=graph.directed,
        require_positive=False,
        require_integer=False,
    )


def heavy_tail_union(seed: int, n: int = 96):
    """``G ∪ H`` for a heavy-tail graph and its Lemma 3.2 hopset."""
    graph = erdos_renyi(n, 8.0 / n, make_rng(seed), weights=heavy_tail_weights())
    delta = exact_apsp(graph) * 2.0
    np.fill_diagonal(delta, 0.0)
    hopset = build_knearest_hopset(graph, delta, 2.0)
    return hopset.augmented(graph), delta, hopset.beta_bound


def assert_same_edges(got, want):
    assert np.array_equal(got.edge_u, want.edge_u)
    assert np.array_equal(got.edge_v, want.edge_v)
    assert np.array_equal(got.edge_w, want.edge_w)


class TestScalingPlan:
    def test_index_selection_rule(self):
        h, eps = 3, 0.5
        B = math.ceil(2 / eps)  # 4
        base = B * h * h  # 36
        delta = np.array(
            [
                [0.0, 10.0, base - 1.0],
                [10.0, 0.0, 4 * base, ],
                [base - 1.0, 4 * base, 0.0],
            ]
        )
        plan = plan_scaling(delta, h, eps)
        assert plan.index[0, 1] == 0  # below B/2 h^2
        assert plan.index[0, 2] == 0  # in [B/2 h^2, B h^2)
        assert plan.index[1, 2] == 3  # 4 * B h^2 is in [2^2 B h^2, 2^3 B h^2)

    def test_needed_is_sorted_unique(self):
        delta = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = plan_scaling(delta, 2, 0.25)
        assert plan.needed == [0]

    def test_number_of_scales_logarithmic(self):
        """Polynomially bounded distances need O(log n) scales."""
        n = 20
        delta = np.full((n, n), float(n**3))
        np.fill_diagonal(delta, 0.0)
        plan = plan_scaling(delta, 2, 0.5)
        assert max(plan.needed) <= math.log2(n**3) + 2

    def test_smaller_eps_trades_a_larger_cap_for_a_smaller_loss(self):
        """Lemma 8.1's knob: B = ceil(2/eps), so the diameter cap B h^2
        grows as the (1 + eps) loss shrinks."""
        delta = exact_apsp(heavy_graph(0))
        caps = [plan_scaling(delta, h=6, eps=eps).cap for eps in (0.05, 0.1, 0.5, 1.0)]
        assert caps == sorted(caps, reverse=True) and caps[0] > caps[-1]

    def test_invalid_inputs(self):
        delta = np.zeros((2, 2))
        with pytest.raises(ValueError):
            plan_scaling(delta, 0, 0.5)
        with pytest.raises(ValueError):
            plan_scaling(delta, 2, 0.0)


class TestScaledGraphs:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_diameter_cap(self, seed):
        """Every G_i has weighted diameter at most B h^2 (with the implicit
        clique edges, i.e. after clipping)."""
        graph = heavy_graph(seed)
        exact = exact_apsp(graph)
        plan = plan_scaling(exact, h=4, eps=0.5)
        for i in plan.needed:
            scaled = build_scaled_graph(graph, i, plan)
            clipped = clip_estimate(exact_apsp(scaled), plan)
            assert weighted_diameter_from_matrix(clipped) <= plan.cap

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sparse_plus_clip_equals_materialized_clique(self, seed):
        """The representation note: min(d_sparse, cap) = d_{K_i}."""
        graph = heavy_graph(seed, n=16)
        exact = exact_apsp(graph)
        plan = plan_scaling(exact, h=3, eps=0.5)
        for i in plan.needed[:3]:
            sparse = build_scaled_graph(graph, i, plan)
            full = build_scaled_graph(graph, i, plan, materialize_clique=True)
            clipped = clip_estimate(exact_apsp(sparse), plan)
            assert np.allclose(clipped, exact_apsp(full))

    def test_rounding_is_ceil(self):
        graph = heavy_graph(0, n=10)
        plan = plan_scaling(exact_apsp(graph), h=2, eps=0.5)
        i = 2  # x = 4
        scaled = build_scaled_graph(graph, i, plan)
        orig = {(u, v): w for u, v, w in graph.edges()}
        for u, v, w in scaled.edges():
            assert w == min(math.ceil(orig[(u, v)] / 4.0), plan.cap)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_triple_list_construction(self, seed):
        """Array-native G_i equals the frozen per-edge construction for
        every needed scale of a heavy-tail G ∪ H."""
        union, delta, beta = heavy_tail_union(seed)
        # The real hop bound, then small ones: many scales, and caps small
        # enough that min(ceil(w / x), cap) clips real edges.
        plans = [
            plan_scaling(delta, h=h, eps=eps)
            for h, eps in ((beta, 0.1), (2, 0.5), (1, 2.0))
        ]
        assert max(len(plan.needed) for plan in plans) >= 3
        for plan in plans:
            for i in plan.needed:
                scaled = build_scaled_graph(union, i, plan)
                assert_same_edges(scaled, reference_scaled_graph(union, i, plan))

    @pytest.mark.parametrize("directed", [False, True])
    def test_materialized_clique_matches_triple_list(self, directed):
        rng = make_rng(5)
        src, dst = rng.integers(0, 14, 60), rng.integers(0, 14, 60)
        graph = WeightedGraph.from_arrays(
            14, src, dst, rng.integers(1, 3000, 60), directed=directed
        )
        plan = plan_scaling(exact_apsp(graph), h=2, eps=0.5)
        for i in plan.needed:
            assert_same_edges(
                build_scaled_graph(graph, i, plan, materialize_clique=True),
                reference_scaled_graph(graph, i, plan, materialize_clique=True),
            )

    def test_scaled_graph_owns_its_arrays(self):
        union, delta, beta = heavy_tail_union(0, n=48)
        plan = plan_scaling(delta, h=beta, eps=0.5)
        scaled = build_scaled_graph(union, plan.needed[0], plan)
        assert not np.shares_memory(scaled.edge_u, union.edge_u)
        assert not np.shares_memory(scaled.edge_v, union.edge_v)
        assert not scaled.edge_w.flags.writeable

    def test_negative_scale_rejected(self):
        graph = heavy_graph(0, n=8)
        plan = plan_scaling(exact_apsp(graph), h=2, eps=0.5)
        with pytest.raises(ValueError):
            build_scaled_graph(graph, -1, plan)


class TestEtaAssembly:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lemma_conclusions_with_exact_per_scale(self, seed):
        """With exact per-scale solutions (l = 1): eta >= d everywhere and
        eta <= (1+eps) d on h-hop-covered pairs."""
        graph = heavy_graph(seed)
        exact = exact_apsp(graph)
        h, eps = 6, 0.5
        plan = plan_scaling(exact, h=h, eps=eps)  # delta = exact (1-approx)
        estimates = {}
        for i in plan.needed:
            scaled = build_scaled_graph(graph, i, plan)
            estimates[i] = clip_estimate(exact_apsp(scaled), plan)
        eta = assemble_eta(estimates, plan)
        hop_ok = np.isclose(minplus_power(graph.matrix(), h), exact)
        assert verify_scaling_guarantees(exact, eta, hop_ok, l_factor=1.0, eps=eps)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lemma_conclusions_with_l_approx_per_scale(self, seed):
        """With synthetic l-approximate per-scale solutions."""
        graph = heavy_graph(seed)
        exact = exact_apsp(graph)
        h, eps, l = 6, 0.5, 3.0
        plan = plan_scaling(exact, h=h, eps=eps)
        estimates = {}
        for i in plan.needed:
            scaled = build_scaled_graph(graph, i, plan)
            worst = exact_apsp(scaled) * l
            np.fill_diagonal(worst, 0.0)
            estimates[i] = clip_estimate(worst, plan)
        eta = assemble_eta(estimates, plan)
        hop_ok = np.isclose(minplus_power(graph.matrix(), h), exact)
        assert verify_scaling_guarantees(exact, eta, hop_ok, l_factor=l, eps=eps)

    def test_missing_scale_rejected(self):
        graph = heavy_graph(1, n=10)
        exact = exact_apsp(graph)
        plan = plan_scaling(exact, h=2, eps=0.5)
        with pytest.raises(ValueError):
            assemble_eta({}, plan)

    def test_coarse_delta_still_sound(self):
        """Using an h-approximation (not exact) to pick scales, the lower
        bound eta >= d must still hold everywhere."""
        graph = heavy_graph(2)
        exact = exact_apsp(graph)
        h, eps = 8, 0.5
        delta = exact * 2.0  # 2-approximation, 2 <= h
        np.fill_diagonal(delta, 0.0)
        plan = plan_scaling(delta, h=h, eps=eps)
        estimates = {}
        for i in plan.needed:
            scaled = build_scaled_graph(graph, i, plan)
            estimates[i] = clip_estimate(exact_apsp(scaled), plan)
        eta = assemble_eta(estimates, plan)
        hop_ok = np.isclose(minplus_power(graph.matrix(), h), exact)
        assert verify_scaling_guarantees(exact, eta, hop_ok, l_factor=1.0, eps=eps)
