"""Tests for k-nearest beta-hopsets (Section 4, Lemma 3.2)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cclique import RoundLedger
from repro.core import build_knearest_hopset
from repro.core.hopsets import _batched_local_distances
from repro.graphs import (
    WeightedGraph,
    erdos_renyi,
    exact_apsp,
    heavy_tail_weights,
    path_with_shortcuts,
)
from repro.semiring import minplus_power
from repro.semiring.minplus import k_smallest_in_rows

from tests.helpers import brute_force_k_nearest, make_rng

SEEDS = [0, 1, 2]


def synthetic_approximation(exact: np.ndarray, a: float, rng) -> np.ndarray:
    """A worst-case-ish a-approximation: random per-pair stretch in [1, a]."""
    n = exact.shape[0]
    noise = rng.uniform(1.0, a, size=(n, n))
    noise = np.maximum(noise, noise.T)  # keep it symmetric
    delta = exact * noise
    np.fill_diagonal(delta, 0.0)
    return delta


class TestHopsetConstruction:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_distances_preserved(self, seed):
        """G and G ∪ H have identical distances (hopset edges are paths)."""
        rng = make_rng(seed)
        graph = erdos_renyi(40, 0.15, rng)
        exact = exact_apsp(graph)
        delta = synthetic_approximation(exact, 4.0, rng)
        result = build_knearest_hopset(graph, delta, 4.0)
        augmented = result.augmented(graph)
        assert np.allclose(exact_apsp(augmented), exact)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_beta_hop_exactness_to_k_nearest(self, seed):
        """Lemma 4.2: every node reaches its sqrt(n)-nearest nodes by a
        beta-hop path of exact length in G ∪ H, for a = 4 and a = 16."""
        rng = make_rng(seed)
        n = 36
        graph = erdos_renyi(n, 0.12, rng)
        exact = exact_apsp(graph)
        for a in (4.0, 16.0):
            delta = synthetic_approximation(exact, a, rng)
            result = build_knearest_hopset(graph, delta, a)
            augmented = result.augmented(graph)
            beta_hop = minplus_power(augmented.matrix(), result.beta_bound)
            for u in range(n):
                ids, dists = brute_force_k_nearest(exact, u, result.k)
                assert np.allclose(beta_hop[u, ids], dists), (
                    f"a={a}, node {u}: beta-hop distances differ from exact on N_k(u)"
                )

    def test_large_diameter_graph(self):
        """The log d factor at work: a path graph with heavy weights."""
        rng = make_rng(7)
        graph = path_with_shortcuts(32, rng, weights=heavy_tail_weights())
        exact = exact_apsp(graph)
        a = 3.0
        delta = synthetic_approximation(exact, a, rng)
        result = build_knearest_hopset(graph, delta, a)
        augmented = result.augmented(graph)
        beta_hop = minplus_power(augmented.matrix(), result.beta_bound)
        for u in range(graph.n):
            ids, dists = brute_force_k_nearest(exact, u, result.k)
            assert np.allclose(beta_hop[u, ids], dists)

    def test_exact_input_gives_one_hop(self):
        """With a = 1 (exact input) the hopset contains direct edges to the
        approximate k-nearest sets, so 1 hop suffices for N_k."""
        rng = make_rng(11)
        graph = erdos_renyi(25, 0.2, rng)
        exact = exact_apsp(graph)
        result = build_knearest_hopset(graph, exact, 1.0)
        augmented = result.augmented(graph)
        one_hop = augmented.matrix()
        for u in range(graph.n):
            ids, dists = brute_force_k_nearest(exact, u, result.k)
            assert np.allclose(one_hop[u, ids], dists)

    def test_directed_graph_supported(self):
        """Lemma 3.2 holds for directed graphs."""
        rng = make_rng(13)
        n = 20
        edges = []
        for i in range(n):
            edges.append((i, (i + 1) % n, 1 + int(rng.integers(1, 5))))
        for _ in range(30):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.append((int(u), int(v), int(rng.integers(1, 9))))
        graph = WeightedGraph(n, edges, directed=True)
        exact = exact_apsp(graph)
        result = build_knearest_hopset(graph, exact * 2.0, 2.0)
        assert result.hopset.directed
        augmented = result.augmented(graph)
        assert np.allclose(exact_apsp(augmented), exact)
        beta_hop = minplus_power(augmented.matrix(), result.beta_bound)
        for u in range(n):
            ids, dists = brute_force_k_nearest(exact, u, result.k)
            assert np.allclose(beta_hop[u, ids], dists)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_undirected_edges_emitted_canonical(self, seed):
        """Undirected hopset edges are emitted as u < v with the lighter
        orientation's weight: the same graph as deduplicating every
        reached (u, v) record."""
        rng = make_rng(seed)
        graph = erdos_renyi(40, 0.15, rng, weights=heavy_tail_weights())
        delta = synthetic_approximation(exact_apsp(graph), 2.0, rng)
        result = build_knearest_hopset(graph, delta, 2.0)
        nearest, _ = k_smallest_in_rows(delta, result.k)
        local = _batched_local_distances(graph, nearest, result.k)
        reached = np.isfinite(local)
        np.fill_diagonal(reached, False)
        src, dst = np.nonzero(reached)
        want = WeightedGraph.from_arrays(
            graph.n, src, dst, local[src, dst],
            require_positive=False, require_integer=False,
        )
        hopset = result.hopset
        assert np.all(hopset.edge_u < hopset.edge_v)
        assert np.array_equal(hopset.edge_u, want.edge_u)
        assert np.array_equal(hopset.edge_v, want.edge_v)
        assert np.array_equal(hopset.edge_w, want.edge_w)

    def test_default_k_is_sqrt_n(self, rng):
        graph = erdos_renyi(49, 0.2, rng)
        exact = exact_apsp(graph)
        result = build_knearest_hopset(graph, exact, 1.0)
        assert result.k == 7

    def test_beta_bound_formula(self, rng):
        graph = erdos_renyi(30, 0.2, rng)
        exact = exact_apsp(graph)
        a = 5.0
        result = build_knearest_hopset(graph, exact * a, a)
        d = result.diameter_bound
        assert result.beta_bound == 2 * (math.ceil(a * math.log(d)) + 1) + 1

    def test_ledger_charged_constant(self, rng):
        graph = erdos_renyi(36, 0.2, rng)
        exact = exact_apsp(graph)
        ledger = RoundLedger(36)
        build_knearest_hopset(graph, exact, 1.0, ledger=ledger)
        # O(1): request + routing + endpoint notification.
        assert 0 < ledger.total_rounds <= 12

    def test_bad_inputs(self, rng):
        graph = erdos_renyi(10, 0.3, rng)
        exact = exact_apsp(graph)
        with pytest.raises(ValueError):
            build_knearest_hopset(graph, exact[:5, :5], 1.0)
        with pytest.raises(ValueError):
            build_knearest_hopset(graph, exact, 0.5)


class TestSection4ProofStructure:
    """Direct checks of the structural claims inside the Lemma 3.2 proof."""

    def test_claim_4_3_ell_triangle_inequality(self):
        """Claim 4.3: ell(v) - ell(u) <= d(v, u), where ell(v) is the
        distance to the sqrt(n)-th nearest node."""
        rng = make_rng(21)
        graph = erdos_renyi(36, 0.15, rng)
        exact = exact_apsp(graph)
        k = math.isqrt(36)
        ell = np.sort(exact, axis=1)[:, k - 1]
        for v in range(36):
            for u in range(36):
                assert ell[v] - ell[u] <= exact[v, u] + 1e-9

    def test_claim_4_2_ball_inside_approximate_set(self):
        """Claim 4.2: B_{(ell(v)-1)/a}(v) is contained in ~N_k(v)."""
        rng = make_rng(22)
        n = 36
        graph = erdos_renyi(n, 0.15, rng)
        exact = exact_apsp(graph)
        a = 3.0
        delta = synthetic_approximation(exact, a, rng)
        k = math.isqrt(n)
        from repro.semiring import k_smallest_in_rows

        approx_sets, _ = k_smallest_in_rows(delta, k)
        ell = np.sort(exact, axis=1)[:, k - 1]
        for v in range(n):
            radius = (ell[v] - 1.0) / a
            ball = np.flatnonzero(exact[v] <= radius)
            members = set(int(x) for x in approx_sets[v] if x >= 0)
            for node in ball:
                assert int(node) in members, (
                    f"node {node} at distance {exact[v, node]} <= {radius} "
                    f"missing from ~N_k({v})"
                )

    def test_lemma_4_1_exactness_inside_small_ball(self):
        """Lemma 4.1: hopset edges to nodes within (ell(v)-1)/a are exact."""
        rng = make_rng(23)
        n = 30
        graph = erdos_renyi(n, 0.2, rng)
        exact = exact_apsp(graph)
        a = 2.0
        delta = synthetic_approximation(exact, a, rng)
        result = build_knearest_hopset(graph, delta, a)
        hop_weights = result.hopset.matrix()
        k = result.k
        ell = np.sort(exact, axis=1)[:, k - 1]
        for v in range(n):
            radius = (ell[v] - 1.0) / a
            for u in np.flatnonzero(exact[v] <= radius):
                if u == v:
                    continue
                # the hopset stores d'(v, u); Lemma 4.1 says it is exact
                assert hop_weights[v, int(u)] <= exact[v, int(u)] + 1e-9
