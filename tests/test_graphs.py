"""Tests for the graph container, generators, and exact distances."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graphs import (
    GraphError,
    INF,
    WeightedGraph,
    clustered_zero_weight_graph,
    erdos_renyi,
    exact_apsp,
    exact_sssp,
    grid_graph,
    heavy_tail_weights,
    hop_diameter,
    hop_limited_distances,
    is_connected,
    minplus_product,
    path_with_shortcuts,
    polynomial_weights,
    preferential_attachment,
    random_regularish,
    shortest_path_hop_bound,
    uniform_weights,
    unit_weights,
    weighted_diameter,
)


class TestWeightedGraph:
    def test_basic_construction(self):
        g = WeightedGraph(3, [(0, 1, 2), (1, 2, 3)])
        assert g.n == 3
        assert g.num_edges == 2
        assert not g.directed

    def test_matrix_view(self):
        g = WeightedGraph(3, [(0, 1, 2), (1, 2, 3)])
        m = g.matrix()
        assert m[0, 1] == 2 and m[1, 0] == 2
        assert m[1, 2] == 3 and m[2, 1] == 3
        assert m[0, 2] == INF
        assert np.all(np.diag(m) == 0)

    def test_directed_matrix(self):
        g = WeightedGraph(3, [(0, 1, 2)], directed=True)
        m = g.matrix()
        assert m[0, 1] == 2
        assert m[1, 0] == INF

    def test_parallel_edges_keep_minimum(self):
        g = WeightedGraph(2, [(0, 1, 5), (0, 1, 3), (1, 0, 7)])
        assert g.num_edges == 1
        assert g.matrix()[0, 1] == 3

    def test_self_loops_dropped(self):
        g = WeightedGraph(2, [(0, 0, 1), (0, 1, 2)])
        assert g.num_edges == 1

    def test_positive_weight_enforced(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(0, 1, 0)])
        with pytest.raises(GraphError):
            WeightedGraph(2, [(0, 1, -1)], require_positive=False)

    def test_integer_weight_enforced(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(0, 1, 1.5)])
        g = WeightedGraph(2, [(0, 1, 1.5)], require_integer=False)
        assert g.matrix()[0, 1] == 1.5

    def test_node_id_validation(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(0, 5, 1)])
        with pytest.raises(GraphError):
            WeightedGraph(2, [(-1, 0, 1)])

    def test_adjacency_sorted_by_weight_then_id(self):
        g = WeightedGraph(4, [(0, 3, 2), (0, 1, 2), (0, 2, 1)])
        neighbours = g.adjacency()[0]
        assert neighbours == [(2, 1.0), (1, 2.0), (3, 2.0)]

    def test_k_shortest_out_edges(self):
        g = WeightedGraph(4, [(0, 3, 2), (0, 1, 2), (0, 2, 1)])
        assert g.k_shortest_out_edges(0, 2) == [(2, 1.0), (1, 2.0)]
        assert g.k_shortest_out_edges(0, 0) == []

    def test_from_matrix_roundtrip(self):
        g = WeightedGraph(3, [(0, 1, 2), (1, 2, 3)])
        g2 = WeightedGraph.from_matrix(g.matrix())
        assert np.array_equal(g.matrix(), g2.matrix())

    def test_union_keeps_minima(self):
        g = WeightedGraph(3, [(0, 1, 5)])
        h = WeightedGraph(3, [(0, 1, 3), (1, 2, 2)])
        u = g.union(h)
        assert u.matrix()[0, 1] == 3
        assert u.matrix()[1, 2] == 2

    def test_union_directedness_mismatch(self):
        g = WeightedGraph(2, [(0, 1, 1)])
        h = WeightedGraph(2, [(0, 1, 1)], directed=True)
        with pytest.raises(GraphError):
            g.union(h)

    def test_scale_weights(self):
        g = WeightedGraph(2, [(0, 1, 3)])
        assert g.scale_weights(2.0).matrix()[0, 1] == 6

    def test_max_weight(self):
        g = WeightedGraph(3, [(0, 1, 2), (1, 2, 9)])
        assert g.max_weight() == 9
        assert WeightedGraph(2).max_weight() == 0


class TestGenerators:
    def test_erdos_renyi_connected(self, rng):
        g = erdos_renyi(50, 0.05, rng)
        assert is_connected(g)

    def test_erdos_renyi_p_zero_still_tree(self, rng):
        g = erdos_renyi(20, 0.0, rng)
        assert g.num_edges >= 19
        assert is_connected(g)

    def test_erdos_renyi_disconnected_allowed(self, rng):
        g = erdos_renyi(20, 0.0, rng, connected=False)
        assert g.num_edges == 0

    #: sha256 of ``edge_u``, ``edge_v``, ``edge_w`` bytes (first 16 hex
    #: digits) of ``erdos_renyi(n, 4 / n, default_rng(seed))``, frozen from
    #: the one-bulk-draw generator that the row-block draws replaced.
    FROZEN_ER = {
    (64, 1): "4d12c3bc96029fe2",
    (64, 2): "e5732b64ee4c4046",
    (64, 3): "e9e9c3bde8e2f7ef",
    (64, 4): "321f0f11b921d10a",
    (64, 5): "d782ef00651b2dfb",
    (512, 1): "9188125ac806257f",
    (512, 2): "1772023a4e98c14d",
    (512, 3): "0664584ff18bdddb",
    (512, 4): "79c36913604c6714",
    (512, 5): "8e39eb99e2f59fca",
    (2048, 1): "3c4becbfb05225bd",
    (2048, 2): "927a97be918b130b",
    (2048, 3): "a3c20303a8604867",
    (2048, 4): "293a000ab666014e",
    (2048, 5): "369ec208d3f24f70",
    }

    @pytest.mark.parametrize("n, seed", sorted(FROZEN_ER))
    def test_erdos_renyi_frozen_output(self, n, seed):
        g = erdos_renyi(n, 4.0 / n, np.random.default_rng(seed))
        digest = hashlib.sha256()
        for array in (g.edge_u, g.edge_v, g.edge_w):
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest()[:16] == self.FROZEN_ER[(n, seed)]

    def test_erdos_renyi_draws_in_row_blocks(self):
        """The pair draws never materialise all n(n-1)/2 uniforms: a
        one-pair block draws one row at a time, with the same pairs and
        the same generator state as one bulk draw."""
        from repro.graphs.generators import _bernoulli_pairs

        class Recording:
            def __init__(self, rng):
                self.rng, self.sizes = rng, []

            def random(self, size):
                self.sizes.append(size)
                return self.rng.random(size)

        bulk_rng = np.random.default_rng(3)
        rows, cols = np.triu_indices(40, k=1)
        keep = bulk_rng.random(rows.size) < 0.1
        blocked = Recording(np.random.default_rng(3))
        u, v = _bernoulli_pairs(40, 0.1, blocked, block=1)
        assert blocked.sizes == list(range(39, 0, -1))
        assert np.array_equal(u, rows[keep]) and np.array_equal(v, cols[keep])
        assert blocked.rng.random() == bulk_rng.random()

    def test_grid_shape(self, rng):
        g = grid_graph(4, rng)
        assert g.n == 16
        assert g.num_edges == 2 * 4 * 3  # 24 for a 4x4 grid

    def test_torus_has_more_edges(self, rng):
        plain = grid_graph(4, rng)
        torus = grid_graph(4, rng, torus=True)
        assert torus.num_edges > plain.num_edges

    def test_path_with_shortcuts(self, rng):
        g = path_with_shortcuts(30, rng, shortcut_count=3)
        assert is_connected(g)
        assert g.num_edges >= 29

    def test_preferential_attachment_connected(self, rng):
        g = preferential_attachment(40, 2, rng)
        assert is_connected(g)

    def test_random_regularish(self, rng):
        g = random_regularish(30, 4, rng)
        assert is_connected(g)

    def test_clustered_zero_weights(self, rng):
        g = clustered_zero_weight_graph(4, 5, rng)
        assert g.n == 20
        assert float(g.edge_w.min()) == 0.0
        assert is_connected(g)

    def test_weight_samplers(self, rng):
        for sampler in (
            uniform_weights(1, 9),
            heavy_tail_weights(),
            polynomial_weights(64),
            unit_weights(),
        ):
            w = sampler(rng, 100)
            assert np.all(w >= 1)
            assert np.all(w == np.floor(w))

    def test_uniform_weights_validation(self):
        with pytest.raises(ValueError):
            uniform_weights(0, 5)
        with pytest.raises(ValueError):
            uniform_weights(5, 2)


class TestDistances:
    def test_exact_apsp_triangle(self):
        g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        d = exact_apsp(g)
        assert d[0, 2] == 2
        assert d[2, 0] == 2

    def test_exact_sssp_matches_apsp(self, small_graph):
        d = exact_apsp(small_graph)
        row = exact_sssp(small_graph, 3)
        assert np.allclose(d[3], row)

    def test_minplus_power_equals_dijkstra(self, small_graph):
        d = exact_apsp(small_graph)
        m = hop_limited_distances(small_graph.matrix(), small_graph.n)
        assert np.allclose(d, m)

    def test_hop_limited_is_monotone(self, small_graph):
        m = small_graph.matrix()
        one = hop_limited_distances(m, 1)
        two = hop_limited_distances(m, 2)
        four = hop_limited_distances(m, 4)
        assert np.all(two <= one + 1e-12)
        assert np.all(four <= two + 1e-12)

    def test_minplus_product_brute_force(self, rng):
        a = rng.integers(1, 10, size=(5, 5)).astype(float)
        b = rng.integers(1, 10, size=(5, 5)).astype(float)
        got = minplus_product(a, b)
        want = np.full((5, 5), INF)
        for i in range(5):
            for j in range(5):
                want[i, j] = min(a[i, k] + b[k, j] for k in range(5))
        assert np.allclose(got, want)

    def test_weighted_diameter(self):
        g = WeightedGraph(3, [(0, 1, 2), (1, 2, 3)])
        assert weighted_diameter(g) == 5

    def test_weighted_diameter_disconnected(self):
        g = WeightedGraph(4, [(0, 1, 1)])
        assert weighted_diameter(g) == INF

    def test_hop_diameter_path(self):
        g = WeightedGraph(5, [(i, i + 1, 7) for i in range(4)])
        assert hop_diameter(g) == 4

    def test_shortest_path_hop_bound(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 10)])
        hops = shortest_path_hop_bound(g)
        assert hops[0, 1] == 1
        # 0 -> 3 shortest path has 3 hops; the doubling bound may report 4.
        assert 3 <= hops[0, 3] <= 4


class TestHopBoundBufferReuse:
    """Regression: ``shortest_path_hop_bound`` doubles the current power
    into a reused spare buffer; hop bounds must match the formulation
    that allocates a fresh product every iteration."""

    def test_bit_identical_to_fresh_allocation_doubling(self):
        from repro.semiring.kernels import minplus_square

        rng = np.random.default_rng(13)
        graph = erdos_renyi(36, 0.12, rng)
        dist = exact_apsp(graph)
        matrix = graph.matrix()
        n = graph.n

        reference = np.full((n, n), INF)
        reference[np.isclose(matrix, dist) & np.isfinite(dist)] = 1.0
        np.fill_diagonal(reference, 0.0)
        current = np.array(matrix)
        h = 1
        while h < n:
            current = minplus_square(current)
            h *= 2
            newly = (
                np.isclose(current, dist)
                & np.isfinite(dist)
                & ~np.isfinite(reference)
            )
            reference[newly] = float(h)
            if np.all(np.isfinite(reference[np.isfinite(dist)])):
                break

        hops = shortest_path_hop_bound(graph, dist=dist)
        assert np.array_equal(hops, reference)
