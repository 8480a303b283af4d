"""Tests for skeleton graphs (Section 6, Lemmas 3.4 / 6.1-6.4)."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.api import ApspSolver, SolverConfig
from repro.cclique import RoundLedger
from repro.core import apsp as apsp_module
from repro.core import (
    build_hitting_set,
    build_knearest_hopset,
    build_skeleton,
    extend_estimate,
    params,
    verify_skeleton_conditions,
)
from repro.core import skeleton as skeleton_module
from repro.core.skeleton import SkeletonError
from repro.graphs import (
    WeightedGraph,
    check_estimate,
    erdos_renyi,
    exact_apsp,
    grid_graph,
    heavy_tail_weights,
)
from repro.semiring import INF, k_smallest_in_rows, sparse_minplus
from repro.semiring import sparse as sparse_module

from tests.helpers import make_rng

SEEDS = [0, 1, 2]


def exact_nearest_tables(exact: np.ndarray, k: int):
    return k_smallest_in_rows(exact, k)


class TestHittingSet:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_hits_every_set(self, seed):
        rng = make_rng(seed)
        graph = erdos_renyi(50, 0.15, rng)
        exact = exact_apsp(graph)
        k = 7
        idx, _ = exact_nearest_tables(exact, k)
        members = build_hitting_set(idx, 50, k, rng)
        member_set = set(members.tolist())
        for u in range(50):
            assert member_set & set(idx[u].tolist()), f"set of {u} missed"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_size_near_bound(self, seed):
        """|S| stays within the O(n log k / k) bound (explicit constant)."""
        rng = make_rng(seed)
        n, k = 100, 10
        graph = erdos_renyi(n, 0.2, rng)
        exact = exact_apsp(graph)
        idx, _ = exact_nearest_tables(exact, k)
        members = build_hitting_set(idx, n, k, rng)
        assert len(members) <= 4 * n * np.log(k) / k + k

    @pytest.mark.parametrize("seed", SEEDS)
    def test_more_repetitions_never_grow_the_set(self, seed):
        """Lemma 6.2's amplification keeps the smallest of the repetitions,
        so more of them (same stream) never give a larger set."""
        graph = erdos_renyi(96, 0.06, make_rng(seed))
        idx, _ = exact_nearest_tables(exact_apsp(graph), 10)
        sizes = [
            len(build_hitting_set(idx, 96, 10, make_rng(seed), repetitions=r))
            for r in (1, 4, 16)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_k_one_degenerates_gracefully(self, rng):
        # k = 1: every node's set is itself, so S = V.
        n = 10
        idx = np.arange(n, dtype=np.int64).reshape(n, 1)
        members = build_hitting_set(idx, n, 1, rng)
        assert len(members) == n

    def test_ledger_charged(self, rng):
        n = 20
        idx = np.arange(n, dtype=np.int64).reshape(n, 1)
        ledger = RoundLedger(n)
        build_hitting_set(idx, n, 1, rng, ledger=ledger)
        assert ledger.total_rounds > 0


class TestSkeletonSimplified:
    """Lemma 3.4: exact k-nearest inputs (a = 1)."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_transfer_guarantee_exact_inner(self, seed):
        """With exact APSP on G_S (l = 1), eta is a 7-approximation."""
        rng = make_rng(seed)
        n, k = 48, 7
        graph = erdos_renyi(n, 0.15, rng)
        exact = exact_apsp(graph)
        idx, val = exact_nearest_tables(exact, k)
        skeleton = build_skeleton(graph, idx, val, k, rng, a=1.0)
        inner = exact_apsp(skeleton.graph)
        eta, factor = extend_estimate(skeleton, inner, 1.0)
        assert factor == pytest.approx(7.0)
        report = check_estimate(exact, eta)
        assert report.sound
        assert report.max_stretch <= 7.0 + 1e-9

    @pytest.mark.parametrize("seed", SEEDS)
    def test_transfer_guarantee_spanner_inner(self, seed):
        """With an l-approximation on G_S, eta is a 7l-approximation."""
        rng = make_rng(seed)
        n, k = 48, 7
        graph = erdos_renyi(n, 0.15, rng)
        exact = exact_apsp(graph)
        idx, val = exact_nearest_tables(exact, k)
        skeleton = build_skeleton(graph, idx, val, k, rng, a=1.0)
        inner_exact = exact_apsp(skeleton.graph)
        l = 3.0
        inner = inner_exact * l  # synthetic worst-case l-approximation
        np.fill_diagonal(inner, 0.0)
        eta, factor = extend_estimate(skeleton, inner, l)
        assert factor == pytest.approx(21.0)
        report = check_estimate(exact, eta)
        assert report.sound
        assert report.max_stretch <= 21.0 + 1e-9

    @pytest.mark.parametrize("seed", SEEDS)
    def test_size_bound(self, seed):
        rng = make_rng(seed)
        n, k = 100, 10
        graph = erdos_renyi(n, 0.1, rng)
        exact = exact_apsp(graph)
        idx, val = exact_nearest_tables(exact, k)
        skeleton = build_skeleton(graph, idx, val, k, rng, a=1.0)
        assert skeleton.num_nodes <= skeleton.size_bound + k

    def test_size_shrinks_with_k(self):
        """The reduction gets stronger as k grows, as Lemma 3.4 needs."""
        graph = erdos_renyi(128, 0.05, make_rng(5))
        exact = exact_apsp(graph)
        sizes = [
            build_skeleton(graph, *exact_nearest_tables(exact, k), k, make_rng(k), a=1.0).num_nodes
            for k in (4, 32)
        ]
        assert sizes[0] > sizes[1]

    def test_grid_graph(self, rng):
        graph = grid_graph(7, rng)
        exact = exact_apsp(graph)
        k = 7
        idx, val = exact_nearest_tables(exact, k)
        skeleton = build_skeleton(graph, idx, val, k, rng, a=1.0)
        eta, _ = extend_estimate(skeleton, exact_apsp(skeleton.graph), 1.0)
        report = check_estimate(exact, eta)
        assert report.sound
        assert report.max_stretch <= 7.0 + 1e-9

    def test_rounds_charged_constant(self, rng):
        n, k = 48, 7
        graph = erdos_renyi(n, 0.15, rng)
        exact = exact_apsp(graph)
        idx, val = exact_nearest_tables(exact, k)
        ledger = RoundLedger(n)
        skeleton = build_skeleton(graph, idx, val, k, rng, a=1.0, ledger=ledger)
        extend_estimate(skeleton, exact_apsp(skeleton.graph), 1.0, ledger)
        assert 0 < ledger.total_rounds <= 20

    def test_eta_symmetric_and_zero_diagonal(self, rng):
        n, k = 40, 6
        graph = erdos_renyi(n, 0.15, rng)
        exact = exact_apsp(graph)
        idx, val = exact_nearest_tables(exact, k)
        skeleton = build_skeleton(graph, idx, val, k, rng, a=1.0)
        eta, _ = extend_estimate(skeleton, exact_apsp(skeleton.graph), 1.0)
        assert np.allclose(eta, eta.T)
        assert np.all(np.diag(eta) == 0)


class TestSkeletonFullVersion:
    """Lemma 6.1: approximate ~N_k inputs with factor a."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_transfer_guarantee_with_approximate_sets(self, seed):
        rng = make_rng(seed)
        n, k = 48, 7
        graph = erdos_renyi(n, 0.15, rng)
        exact = exact_apsp(graph)
        a = 1.5
        # Build an a-approximation and derive ~N_k from it (the Theorem 8.1
        # situation); conditions (C1)/(C2) hold by the paper's argument.
        noise = rng.uniform(1.0, a, size=(n, n))
        delta = exact * np.maximum(noise, noise.T)
        np.fill_diagonal(delta, 0.0)
        idx, val = k_smallest_in_rows(delta, k)
        skeleton = build_skeleton(graph, idx, val, k, rng, a=a)
        inner = exact_apsp(skeleton.graph)
        eta, factor = extend_estimate(skeleton, inner, 1.0)
        assert factor == pytest.approx(7.0 * a * a)
        report = check_estimate(exact, eta)
        assert report.sound
        assert report.max_stretch <= factor + 1e-9

    def test_verify_conditions_helper(self, rng):
        n, k = 30, 5
        graph = erdos_renyi(n, 0.2, rng)
        exact = exact_apsp(graph)
        idx, val = exact_nearest_tables(exact, k)
        assert verify_skeleton_conditions(exact, idx, val, a=1.0)
        # Corrupt one value below the true distance: (C1) must fail.
        bad = val.copy()
        bad[0, -1] = 0.0
        assert not verify_skeleton_conditions(exact, idx, bad, a=1.0)


class TestSkeletonValidation:
    def test_directed_rejected(self, rng):
        graph = WeightedGraph(4, [(0, 1, 1)], directed=True)
        idx = np.zeros((4, 1), dtype=np.int64)
        val = np.zeros((4, 1))
        with pytest.raises(SkeletonError):
            build_skeleton(graph, idx, val, 1, rng)

    def test_shape_mismatch(self, rng):
        graph = WeightedGraph(4, [(0, 1, 1)])
        idx = np.zeros((3, 1), dtype=np.int64)
        val = np.zeros((3, 1))
        with pytest.raises(SkeletonError):
            build_skeleton(graph, idx, val, 1, rng)

    def test_list_tables_accepted(self):
        graph, idx, val, k = _er_sparse(make_rng(6))
        from_lists = build_skeleton(graph, idx.tolist(), val.tolist(), k, make_rng(0))
        from_arrays = build_skeleton(graph, idx, val, k, make_rng(0))
        assert np.array_equal(from_lists.nodes, from_arrays.nodes)
        assert np.array_equal(from_lists.graph.edge_w, from_arrays.graph.edge_w)
        for got, want in zip(from_lists.known, from_arrays.known):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "idx, val",
        [
            (np.zeros(4, dtype=np.int64), np.zeros(4)),  # not 2-D
            (np.zeros((4, 2), dtype=np.int64), np.zeros((4, 2))),  # k mismatch
            (np.zeros((4, 1), dtype=np.int64), np.zeros((4, 2))),  # shapes differ
            (np.zeros((4, 1)), np.zeros((4, 1))),  # float indices
        ],
    )
    def test_malformed_tables_rejected(self, rng, idx, val):
        graph = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        with pytest.raises(SkeletonError):
            build_skeleton(graph, idx, val, 1, rng)

    def test_extend_shape_mismatch(self, rng):
        n, k = 20, 4
        graph = erdos_renyi(n, 0.3, rng)
        exact = exact_apsp(graph)
        idx, val = exact_nearest_tables(exact, k)
        skeleton = build_skeleton(graph, idx, val, k, rng, a=1.0)
        with pytest.raises(SkeletonError):
            extend_estimate(skeleton, np.zeros((2, 2)), 1.0)


# --------------------------------------------------------------------- #
# Frozen references: the dense X*Y product, the dense (n, n) known matrix
# and the np.where extension that the sparse join and the scattered known
# entries replaced.  The new path must reproduce them bit for bit.
# --------------------------------------------------------------------- #


def reference_build_skeleton(graph, nbr_indices, nbr_values, k, rng, ledger=None):
    n = graph.n
    members = build_hitting_set(nbr_indices, n, k, rng, ledger=ledger)
    size = len(members)
    compact = np.full(n, -1, dtype=np.int64)
    compact[members] = np.arange(size)
    in_s = np.zeros(n, dtype=bool)
    in_s[members] = True
    member_mask = np.where(nbr_indices >= 0, in_s[nbr_indices], False)
    first_pos = member_mask.argmax(axis=1)
    center = compact[nbr_indices[np.arange(n), first_pos]]
    center_delta = nbr_values[np.arange(n), first_pos]

    x = np.full((size, n), INF)
    rows = np.repeat(center, k)
    cols = nbr_indices.ravel()
    vals = (center_delta[:, None] + nbr_values).ravel()
    keep = (cols >= 0) & np.isfinite(vals)
    np.minimum.at(x, (rows[keep], cols[keep]), vals[keep])
    y = np.full((n, size), INF)
    eu, ev, ew = graph.edge_u, graph.edge_v, graph.edge_w
    if len(eu):
        np.minimum.at(y, (eu, center[ev]), ew + center_delta[ev])
        np.minimum.at(y, (ev, center[eu]), ew + center_delta[eu])
    np.minimum.at(y, (np.arange(n), center), center_delta)
    product = sparse_minplus(
        x,
        y,
        ledger=ledger,
        rho_st_bound=max(1.0, size * size / max(1, n)),
        clique_n=n,
        detail="skeleton edge weights X*Y [Lemma 6.2]",
    )
    weights = np.minimum(product.product, product.product.T)
    np.fill_diagonal(weights, INF)
    rows, cols = np.nonzero(np.isfinite(weights))
    upper = rows < cols
    rows, cols = rows[upper], cols[upper]
    skeleton_graph = WeightedGraph.from_arrays(
        size if size > 0 else 1,
        rows,
        cols,
        weights[rows, cols],
        require_positive=False,
        require_integer=False,
    )

    known = np.full((n, n), INF)
    rows_all = np.repeat(np.arange(n), k)
    cols_all = nbr_indices.ravel()
    keep = (cols_all >= 0) & np.isfinite(nbr_values.ravel())
    np.minimum.at(known, (rows_all[keep], cols_all[keep]), nbr_values.ravel()[keep])
    known = np.minimum(known, known.T)
    np.fill_diagonal(known, 0.0)
    return members, skeleton_graph, center, center_delta, known


def reference_extend_estimate(center, center_delta, known, delta_gs):
    through = (
        center_delta[:, None] + delta_gs[center][:, center] + center_delta[None, :]
    )
    eta = np.where(np.isfinite(known), known, through)
    np.fill_diagonal(eta, 0.0)
    return np.minimum(eta, eta.T)


def _tables(delta, k):
    idx, val = k_smallest_in_rows(delta, k)
    return idx, val, k


def _er_sparse(rng):
    """Theorem 1.1's first-stage shape: sparse Erdos-Renyi, exact tables."""
    graph = erdos_renyi(256, 4.0 / 256, rng)
    return graph, *_tables(exact_apsp(graph), 10)


def _g_union_h(rng):
    """Theorem 8.1's shape: heavy-tail G plus its k-nearest hopset."""
    n = 128
    graph = erdos_renyi(n, 8.0 / n, rng, weights=heavy_tail_weights())
    delta = exact_apsp(graph) * 2.0
    np.fill_diagonal(delta, 0.0)
    union = build_knearest_hopset(graph, delta, 2.0).augmented(graph)
    return union, *_tables(delta, math.isqrt(n))


def _padded(rng):
    """Two components and isolated nodes: -1 / inf padding in the tables."""
    parts = [erdos_renyi(20, 0.3, rng), erdos_renyi(25, 0.25, rng)]
    offsets = (0, 20)
    graph = WeightedGraph.from_arrays(
        55,
        np.concatenate([p.edge_u + o for p, o in zip(parts, offsets)]),
        np.concatenate([p.edge_v + o for p, o in zip(parts, offsets)]),
        np.concatenate([p.edge_w for p in parts]),
    )
    return graph, *_tables(exact_apsp(graph), 8)


def _inf_values(rng):
    """Valid IDs carrying inf estimates: never known, never in x or y."""
    graph = erdos_renyi(64, 0.1, rng)
    idx, val, k = _tables(exact_apsp(graph), 8)
    val[:, -2:] = INF
    return graph, idx, val, k


def _zero_fractional(rng):
    """Zero-weight edges and non-integer weights."""
    base = erdos_renyi(80, 0.08, rng)
    weights = rng.uniform(0.25, 3.0, base.num_edges)
    weights[rng.random(base.num_edges) < 0.2] = 0.0
    graph = WeightedGraph.from_arrays(
        80,
        base.edge_u,
        base.edge_v,
        weights,
        require_positive=False,
        require_integer=False,
    )
    return graph, *_tables(exact_apsp(graph), 7)


def _asymmetric(rng):
    """Approximate tables whose (u, v) and (v, u) estimates differ."""
    graph = erdos_renyi(96, 0.06, rng)
    delta = exact_apsp(graph) * rng.uniform(1.0, 1.5, (96, 96))
    np.fill_diagonal(delta, 0.0)
    return graph, *_tables(delta, 9)


def _single_center(rng):
    """Every node's table is all of V, and the hitting set is one node."""
    graph = erdos_renyi(12, 0.5, rng)
    return graph, *_tables(exact_apsp(graph), 12)


DIFFERENTIAL_CASES = {
    "er-sparse": _er_sparse,
    "g-union-h": _g_union_h,
    "padded": _padded,
    "inf-values": _inf_values,
    "zero-fractional": _zero_fractional,
    "asymmetric": _asymmetric,
    "single-center": _single_center,
}


def _count_dense_products(monkeypatch):
    calls = []
    dense = sparse_module.minplus

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return dense(*args, **kwargs)

    monkeypatch.setattr(sparse_module, "minplus", counting)
    return calls


class TestSkeletonMatchesReference:
    """The join-based product and sparse known entries change no output."""

    @pytest.mark.parametrize("path", ["chosen", "join", "dense"])
    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_bit_identical(self, case, path, monkeypatch):
        if path != "chosen":
            cost = 0.0 if path == "join" else INF
            monkeypatch.setattr(skeleton_module, "JOIN_CANDIDATE_COST", cost)
        graph, idx, val, k = DIFFERENTIAL_CASES[case](make_rng(3))
        new_ledger, ref_ledger = RoundLedger(graph.n), RoundLedger(graph.n)
        skeleton = build_skeleton(graph, idx, val, k, make_rng(5), ledger=new_ledger)
        nodes, ref_graph, center, center_delta, known = reference_build_skeleton(
            graph, idx, val, k, make_rng(5), ledger=ref_ledger
        )
        assert np.array_equal(skeleton.nodes, nodes)
        assert np.array_equal(skeleton.center, center)
        assert np.array_equal(skeleton.center_delta, center_delta)
        for got, want in (
            (skeleton.graph.edge_u, ref_graph.edge_u),
            (skeleton.graph.edge_v, ref_graph.edge_v),
            (skeleton.graph.edge_w, ref_graph.edge_w),
        ):
            assert np.array_equal(got, want)
        assert new_ledger.rounds_by_phase() == ref_ledger.rounds_by_phase()
        if case == "single-center":
            assert skeleton.num_nodes == 1

        # Exact inner distances, then an asymmetric non-integer l-approx.
        size = skeleton.num_nodes
        exact_gs = exact_apsp(skeleton.graph)
        noisy_gs = exact_gs * make_rng(7).uniform(1.0, 2.5, (size, size))
        np.fill_diagonal(noisy_gs, 0.0)
        for delta_gs in (exact_gs, noisy_gs):
            new_ledger, ref_ledger = RoundLedger(graph.n), RoundLedger(graph.n)
            eta, _ = extend_estimate(skeleton, delta_gs, 1.0, new_ledger)
            extend_estimate(skeleton, delta_gs, 1.0, ref_ledger)
            want = reference_extend_estimate(center, center_delta, known, delta_gs)
            assert np.array_equal(eta, want)
            assert np.array_equal(eta, eta.T)
            assert new_ledger.rounds_by_phase() == ref_ledger.rounds_by_phase()

    def test_known_entries_are_the_dense_known_matrix(self):
        graph, idx, val, k = _asymmetric(make_rng(4))
        skeleton = build_skeleton(graph, idx, val, k, make_rng(1))
        *_, known = reference_build_skeleton(graph, idx, val, k, make_rng(1))
        u, v, delta = skeleton.known
        rebuilt = np.full_like(known, INF)
        rebuilt[u, v] = delta
        np.fill_diagonal(rebuilt, 0.0)
        assert np.array_equal(rebuilt, known)
        assert not np.any(u == v)

    def test_join_path_on_theorem11_shape(self, monkeypatch):
        n = 512
        graph = erdos_renyi(n, 4.0 / n, make_rng(2))
        idx, val, k = _tables(exact_apsp(graph), params.theorem11_k0(n))
        calls = _count_dense_products(monkeypatch)
        build_skeleton(graph, idx, val, k, make_rng(2))
        assert calls == []

    def test_dense_path_on_g_union_h(self, monkeypatch):
        graph, idx, val, k = _g_union_h(make_rng(2))
        calls = _count_dense_products(monkeypatch)
        skeleton = build_skeleton(graph, idx, val, k, make_rng(2))
        size = skeleton.num_nodes
        assert calls == [(size, graph.n)]


class TestExtensionSymmetry:
    def test_eta_exactly_symmetric_for_fractional_inputs(self, rng):
        graph, idx, val, k = _asymmetric(rng)
        skeleton = build_skeleton(graph, idx, val, k, rng)
        size = skeleton.num_nodes
        delta_gs = rng.uniform(0.5, 9.5, (size, size))
        np.fill_diagonal(delta_gs, 0.0)
        eta, _ = extend_estimate(skeleton, delta_gs, 1.0)
        assert np.array_equal(eta, eta.T)
        assert np.all(np.diag(eta) == 0.0)


@pytest.fixture(scope="module")
def theorem11_extend_inputs():
    """The skeleton and inner estimate a seeded theorem11 solve at
    n = 2048 hands to ``extend_estimate``, and the solve's estimate."""
    n = 2048
    graph = erdos_renyi(n, 4.0 / n, make_rng(3))
    captured = []

    def capture(skeleton, delta_gs, l_factor, ledger=None):
        captured.append((skeleton, np.array(delta_gs), l_factor))
        return extend_estimate(skeleton, delta_gs, l_factor, ledger)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(apsp_module, "extend_estimate", capture)
        result = ApspSolver(SolverConfig(variant="theorem11", seed=3)).solve(graph)
    assert len(captured) == 1
    return (*captured[0], result.estimate)


class TestExtendAtScale:
    """Theorem 1.1's extend step on a real n = 2048 skeleton."""

    def test_bit_identical_to_reference(self, theorem11_extend_inputs):
        skeleton, delta_gs, l_factor, solved = theorem11_extend_inputs
        n = len(skeleton.center)
        known = np.full((n, n), INF)
        u, v, delta = skeleton.known
        known[u, v] = delta
        want = reference_extend_estimate(
            skeleton.center, skeleton.center_delta, known, delta_gs
        )
        del known
        eta, _ = extend_estimate(skeleton, delta_gs, l_factor)
        assert np.array_equal(eta.view(np.int64), want.view(np.int64))
        assert np.array_equal(eta, solved)

    def test_peak_memory_is_one_dense_matrix(self, theorem11_extend_inputs):
        """eta is the only (n, n) array: the traced peak is one n x n
        float64 matrix (with 10% slack) plus O(n |S|) for the gather."""
        skeleton, delta_gs, l_factor, _ = theorem11_extend_inputs
        n, size = len(skeleton.center), skeleton.num_nodes
        tracemalloc.start()
        try:
            eta, _ = extend_estimate(skeleton, delta_gs, l_factor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 1.1 * n * n * 8 + 2 * n * size * 8
        assert peak <= bound, (
            f"extend peak {peak / 2**20:.1f} MiB exceeds {bound / 2**20:.1f} "
            f"MiB (eta alone is {eta.nbytes / 2**20:.1f} MiB)"
        )
