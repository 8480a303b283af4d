"""Tests for the extended generator set (hypercube, expander, geometric,
directed ring) and pipeline behaviour on them."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import apsp_small_diameter
from repro.graphs import (
    check_estimate,
    directed_ring_with_chords,
    exact_apsp,
    hop_diameter,
    hypercube_graph,
    is_connected,
    margulis_expander,
    random_geometric,
)

from tests.helpers import make_rng


class TestHypercube:
    def test_structure(self, rng):
        graph = hypercube_graph(4, rng)
        assert graph.n == 16
        assert graph.num_edges == 16 * 4 // 2
        assert is_connected(graph)

    def test_log_diameter(self, rng):
        graph = hypercube_graph(5, rng)
        assert hop_diameter(graph) == 5

    def test_invalid_dimension(self, rng):
        with pytest.raises(ValueError):
            hypercube_graph(0, rng)

    def test_pipeline_runs(self):
        rng = make_rng(0)
        graph = hypercube_graph(5, rng)
        exact = exact_apsp(graph)
        result = apsp_small_diameter(graph, rng)
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9


class TestExpander:
    def test_structure(self, rng):
        graph = margulis_expander(6, rng)
        assert graph.n == 36
        assert is_connected(graph)

    def test_logarithmic_diameter(self, rng):
        small = margulis_expander(4, rng)
        large = margulis_expander(8, rng)
        # expander diameters grow logarithmically: x4 nodes, diameter +O(1)
        assert hop_diameter(large) <= hop_diameter(small) + 4

    def test_invalid_side(self, rng):
        with pytest.raises(ValueError):
            margulis_expander(1, rng)

    def test_pipeline_runs(self):
        rng = make_rng(1)
        graph = margulis_expander(7, rng)
        exact = exact_apsp(graph)
        result = apsp_small_diameter(graph, rng)
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9


class TestRandomGeometric:
    def test_connected(self, rng):
        graph = random_geometric(40, 0.25, rng)
        assert is_connected(graph)

    def test_weights_positive_integers(self, rng):
        graph = random_geometric(30, 0.3, rng)
        assert np.all(graph.edge_w >= 1)
        assert np.all(graph.edge_w == np.floor(graph.edge_w))

    def test_invalid_params(self, rng):
        with pytest.raises(ValueError):
            random_geometric(1, 0.2, rng)
        with pytest.raises(ValueError):
            random_geometric(10, 0.0, rng)

    def test_greedy_routing_loves_geometry(self):
        """On geometric graphs, greedy forwarding from exact estimates is
        optimal and from approximate estimates stays short."""
        from repro.core.routing_tables import routing_quality

        rng = make_rng(2)
        graph = random_geometric(48, 0.25, rng)
        exact = exact_apsp(graph)
        result = apsp_small_diameter(graph, rng)
        quality = routing_quality(graph, result.estimate, exact, rng, samples=100)
        assert quality.delivery_rate >= 0.75
        if quality.delivered:
            assert quality.max_stretch <= result.factor + 1e-9


class TestDirectedRing:
    def test_strongly_connected(self, rng):
        graph = directed_ring_with_chords(20, 10, rng)
        assert graph.directed
        assert np.all(np.isfinite(exact_apsp(graph)))

    def test_asymmetric_distances(self, rng):
        graph = directed_ring_with_chords(20, 0, rng)
        exact = exact_apsp(graph)
        # a pure directed cycle: d(0, 1) is one edge, d(1, 0) is n-1 edges
        assert exact[0, 1] < exact[1, 0]

    def test_directed_hopset_and_knearest(self):
        """Sections 4 and 5 on a genuinely directed workload."""
        from repro.core import build_knearest_hopset, knearest_exact_via_hopset
        from tests.helpers import brute_force_k_nearest

        rng = make_rng(3)
        graph = directed_ring_with_chords(24, 20, rng)
        exact = exact_apsp(graph)
        delta = exact * 2.0
        np.fill_diagonal(delta, 0.0)
        hopset = build_knearest_hopset(graph, delta, 2.0)
        assert hopset.hopset.directed
        augmented = hopset.augmented(graph)
        assert np.allclose(exact_apsp(augmented), exact)
        knn = knearest_exact_via_hopset(augmented, 4, 2, hopset.beta_bound)
        for u in range(graph.n):
            ids, dists = brute_force_k_nearest(exact, u, 4)
            assert np.allclose(np.sort(knn.values[u]), np.sort(dists))

    def test_invalid_size(self, rng):
        with pytest.raises(ValueError):
            directed_ring_with_chords(2, 0, rng)
