"""Tests for the k-nearest machinery (Section 5, Lemmas 5.1–5.3)."""

from __future__ import annotations

import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cclique import LoadPreconditionError, RoundLedger
from repro.core import (
    KNearestInexact,
    KNearestResult,
    apsp_theorem11,
    build_knearest_hopset,
    knearest_exact,
    knearest_exact_via_hopset,
    knearest_iterated,
    knearest_one_round,
    make_bin_plan,
    params,
)
from repro.graphs import (
    WeightedGraph,
    check_estimate,
    clustered_zero_weight_graph,
    directed_ring_with_chords,
    erdos_renyi,
    exact_apsp,
    grid_graph,
    heavy_tail_weights,
)
from repro.graphs.generators import uniform_weights, unit_weights
from repro.semiring import filter_rows, k_smallest_in_rows, minplus_power
from repro.semiring.kernels import memory_budget_from_env

knearest_module = importlib.import_module("repro.core.knearest")
_row_blocks = knearest_module._row_blocks
_k_smallest_of_candidates = importlib.import_module(
    "repro.semiring.minplus"
)._k_smallest_of_candidates

from tests.helpers import brute_force_k_nearest, make_rng

SEEDS = [0, 1, 2]


class TestBinPlan:
    @pytest.mark.parametrize("n", [64, 256, 1024, 4096, 16384])
    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_combination_count_at_most_n(self, n, h):
        """The paper's counting claim: h * C(p, h) <= n."""
        k = max(1, int(n ** (1.0 / h)))
        plan = make_bin_plan(n, k, h)
        if plan.feasible:
            assert plan.combination_count <= n

    def test_assignments_enumeration(self):
        plan = make_bin_plan(256, 16, 2)
        assert plan.feasible
        combos = plan.assignments()
        assert len(combos) == plan.combination_count
        # first bin distinguished; the rest sorted and distinct
        for combo in combos:
            assert len(set(combo)) == len(combo)

    def test_assignment_limit(self):
        plan = make_bin_plan(256, 16, 2)
        assert len(plan.assignments(limit=5)) == 5

    def test_assignment_limit_is_a_prefix(self):
        plan = make_bin_plan(256, 16, 2)
        assert plan.assignments(limit=7) == plan.assignments()[:7]

    def test_assignments_memoised_per_p_h(self):
        """Equal (p, h) plans share one enumeration (the full list is
        recomputed at most once across the pipeline's rebuilds)."""
        from repro.core.knearest import _full_assignments

        _full_assignments.cache_clear()
        plan = make_bin_plan(256, 16, 2)
        first = plan.assignments()
        again = make_bin_plan(256, 16, 2).assignments()
        assert first == again
        info = _full_assignments.cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_large_plan_limit_does_not_materialise_everything(self):
        """A huge enumeration served with a small limit stays lazy: the
        full-list memo must not be populated for that (p, h)."""
        from repro.core.knearest import _full_assignments

        _full_assignments.cache_clear()
        plan = make_bin_plan(1 << 24, 64, 2)
        assert plan.combination_count > 10**6
        prefix = plan.assignments(limit=3)
        assert len(prefix) == 3
        assert _full_assignments.cache_info().currsize == 0

    def test_bins_touching_node_at_most_two(self):
        plan = make_bin_plan(256, 16, 2)
        for u in (0, 100, 255):
            assert 1 <= len(plan.bins_touching_node(u)) <= 2

    def test_bin_of_global_index(self):
        plan = make_bin_plan(256, 16, 2)
        assert plan.bin_of_global_index(0) == 0
        assert plan.bin_of_global_index(256 * 16 - 1) == plan.p - 1
        with pytest.raises(ValueError):
            plan.bin_of_global_index(256 * 16)

    def test_trivial_regime_small_p(self):
        # h so large that p < h: the problem is trivial (k in O(1)).
        plan = make_bin_plan(16, 1, 8)
        assert plan.trivial

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            make_bin_plan(0, 1, 1)


class TestLemma51:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_true_h_hop_k_nearest(self, seed):
        """Output rows equal the k smallest entries of A^h (Lemma 5.1)."""
        rng = make_rng(seed)
        graph = erdos_renyi(36, 0.15, rng)
        matrix = graph.matrix()
        k, h = 6, 2
        result = knearest_one_round(matrix, k, h)
        truth = minplus_power(matrix, h)
        t_idx, t_val = k_smallest_in_rows(truth, k)
        assert np.array_equal(result.indices, t_idx)
        assert np.allclose(
            np.where(np.isfinite(result.values), result.values, -1),
            np.where(np.isfinite(t_val), t_val, -1),
        )

    def test_load_precondition_enforced(self, rng):
        graph = erdos_renyi(36, 0.3, rng)
        with pytest.raises(LoadPreconditionError):
            knearest_one_round(graph.matrix(), k=30, h=2)

    def test_validate_can_be_disabled(self, rng):
        graph = erdos_renyi(36, 0.3, rng)
        result = knearest_one_round(graph.matrix(), k=30, h=2, validate=False)
        assert result.k == 30

    def test_constant_rounds_charged(self, rng):
        graph = erdos_renyi(36, 0.2, rng)
        ledger = RoundLedger(36)
        knearest_one_round(graph.matrix(), 6, 2, ledger=ledger)
        assert 0 < ledger.total_rounds <= 10


class TestLemma52:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_iterated_matches_h_pow_i(self, seed):
        """After i iterations, rows equal the k smallest of A^(h^i)."""
        rng = make_rng(seed)
        graph = erdos_renyi(30, 0.15, rng)
        matrix = graph.matrix()
        k, h, i = 5, 2, 3
        result = knearest_iterated(matrix, k, h, i)
        truth = minplus_power(matrix, h**i)
        t_idx, t_val = k_smallest_in_rows(truth, k)
        assert np.array_equal(result.indices, t_idx)

    def test_rounds_linear_in_iterations(self, rng):
        graph = erdos_renyi(36, 0.2, rng)
        one = RoundLedger(36)
        three = RoundLedger(36)
        knearest_iterated(graph.matrix(), 6, 2, 1, ledger=one)
        knearest_iterated(graph.matrix(), 6, 2, 3, ledger=three)
        assert three.total_rounds == 3 * one.total_rounds

    def test_invalid_iterations(self, rng):
        graph = erdos_renyi(16, 0.3, rng)
        with pytest.raises(ValueError):
            knearest_iterated(graph.matrix(), 4, 2, 0)

    def test_accepts_nested_lists(self, rng):
        """Regression: the matrix is converted before its shape is read."""
        matrix = erdos_renyi(20, 0.2, rng).matrix()
        from_list = knearest_iterated(matrix.tolist(), 4, 2, 2)
        from_array = knearest_iterated(matrix, 4, 2, 2)
        assert np.array_equal(from_list.indices, from_array.indices)
        assert np.array_equal(from_list.values, from_array.values)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            knearest_iterated(np.zeros((3, 4)), 2, 2, 1)


def unloaded(solve, *args):
    """``solve(*args)`` with Lemma 5.1's load bound lifted.

    The bound governs the round count, not exactness; lifting it lets the
    differential tests reach small ``n`` and ``k >= n``.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(params, "knearest_feasible", lambda n, k, h: True)
        return solve(*args)


def assert_identical(result, expected):
    """Bit-identical rows: same IDs, same values, same padding."""
    assert np.array_equal(result.indices, expected.indices)
    assert np.array_equal(result.values, expected.values)


def power_rows(matrix, k, hops):
    """The definition of ``N^hops_k``: the k smallest entries per row of
    the unfiltered power ``A^hops``."""
    indices, values = k_smallest_in_rows(minplus_power(matrix, hops), k)
    return KNearestResult(indices=indices, values=values, k=k, h=hops, iterations=1)


def filtered_power_rows(matrix, k, h, iterations):
    """Lemma 5.2's rounds from dense products: each round filters its
    input to ``Ā``, sets a zero diagonal, and raises it to the ``h``-th
    power with :func:`minplus_power`."""
    current = np.asarray(matrix, dtype=np.float64)
    for _ in range(iterations):
        step = filter_rows(current, k)
        np.fill_diagonal(step, 0.0)
        power = minplus_power(step, h)
        indices, values = k_smallest_in_rows(power, k)
        current = filter_rows(power, k)
        np.fill_diagonal(current, 0.0)
    return KNearestResult(
        indices=indices, values=values, k=k, h=h, iterations=iterations
    )


class TestRowSparseMatchesDenseReference:
    """Lemma 5.2's rounds against the same rounds built from dense
    ``minplus_power`` products, and, with positive weights, against the
    unfiltered power ``A^(h^i)`` (Lemma 5.5: their k smallest row entries
    agree, ``(value, ID)`` tie-break included; integer weights keep every
    path sum exact)."""

    SCHEDULES = [(4, 2, 3), (7, 3, 2), (16, 2, 2), (3, 5, 1)]

    def _check(self, matrix, schedules=None):
        positive = (matrix[~np.eye(len(matrix), dtype=bool)] > 0).all()
        for k, h, i in schedules or self.SCHEDULES:
            result = unloaded(knearest_iterated, matrix, k, h, i)
            assert_identical(result, filtered_power_rows(matrix, k, h, i))
            if positive:
                assert_identical(result, power_rows(matrix, k, h**i))

    @pytest.mark.parametrize("seed", range(4))
    def test_erdos_renyi_heavy_ties(self, seed):
        rng = make_rng(seed)
        graph = erdos_renyi(120, 0.04, rng, weights=uniform_weights(1, 3))
        self._check(graph.matrix())

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_weight_disconnected(self, seed):
        """Isolated nodes and small components leave padded rows."""
        rng = make_rng(seed)
        graph = erdos_renyi(100, 0.012, rng, weights=unit_weights(), connected=False)
        matrix = graph.matrix()
        self._check(matrix)
        short = unloaded(knearest_iterated, matrix, 16, 2, 2)
        assert (short.indices == -1).any()

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_weight_clusters_below_cluster_size(self, seed):
        """k < cluster size: k lower IDs at distance 0 can push ``u`` out
        of its own row, which the zero diagonal must then restore."""
        rng = make_rng(seed)
        graph = clustered_zero_weight_graph(8, 12, rng)
        matrix = graph.matrix()
        self._check(matrix, [(4, 2, 3), (6, 3, 2), (11, 2, 2)])
        rows = unloaded(knearest_iterated, matrix, 4, 2, 3).indices
        assert not all(u in rows[u] for u in range(graph.n))

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_weight_edges_reach_unchanged_rows(self, seed):
        """With zero-weight edges, a row unchanged by one hop can still
        change in the next through a neighbour that did change."""
        rng = make_rng(seed)
        n = int(rng.integers(10, 24))
        matrix = np.full((n, n), np.inf)
        edges = np.triu(rng.random((n, n)) < 0.25, 1)
        matrix[edges] = rng.integers(0, 3, size=(n, n))[edges]
        matrix = np.minimum(matrix, matrix.T)
        np.fill_diagonal(matrix, 0.0)
        self._check(matrix, [(2, 3, 1), (3, 3, 2), (3, 5, 1), (4, 4, 1)])

    def test_k_at_least_n(self, rng):
        graph = erdos_renyi(24, 0.15, rng, weights=uniform_weights(1, 4))
        self._check(graph.matrix(), [(24, 2, 2), (40, 3, 1)])

    def test_theorem11_schedule_at_512(self):
        n = 512
        graph = erdos_renyi(n, 4 / n, make_rng(7))
        k = params.theorem11_k0(n)
        h, i = params.choose_hop_schedule(n, k)
        result = knearest_iterated(graph.matrix(), k, h, i)
        assert_identical(result, power_rows(graph.matrix(), k, h**i))

    def test_one_round_matches_reference(self, rng):
        matrix = erdos_renyi(60, 0.08, rng, weights=uniform_weights(1, 3)).matrix()
        assert_identical(knearest_one_round(matrix, 6, 3), power_rows(matrix, 6, 3))


def ball_corpus():
    """``(name, graph)`` inputs for :func:`knearest_exact`'s differential
    test: generic, dense (every degree above ``k - 1``), geometric,
    heavy-tailed, tie-heavy, disconnected and directed."""
    rng = make_rng(21)
    return [
        ("er", erdos_renyi(90, 0.05, rng)),
        ("dense", erdos_renyi(60, 0.5, rng, weights=uniform_weights(1, 5))),
        ("grid", grid_graph(9, rng, weights=uniform_weights(1, 9))),
        ("heavy-tail", erdos_renyi(80, 0.06, rng, weights=heavy_tail_weights())),
        ("ties", erdos_renyi(100, 0.05, rng, weights=uniform_weights(1, 2))),
        ("unit", erdos_renyi(70, 0.05, rng, weights=unit_weights())),
        ("disconnected", erdos_renyi(
            90, 0.012, rng, weights=uniform_weights(1, 2), connected=False
        )),
        ("directed", directed_ring_with_chords(60, 40, rng, weights=uniform_weights(1, 3))),
    ]


BALL_CORPUS = ball_corpus()


def knearest_exact_unloaded(graph, k, h, i):
    return unloaded(knearest_exact, graph, k, h, i)


class TestKNearestExact:
    """The CSR ball growth against Lemma 5.2's filtered rounds and the
    unfiltered power ``A^(h^i)``."""

    #: (k, h, i) with ``h^i >= k``.
    SCHEDULES = [(1, 2, 1), (4, 2, 2), (7, 3, 2), (16, 2, 4), (12, 4, 2), (5, 5, 1)]

    @pytest.mark.parametrize("name, graph", BALL_CORPUS, ids=[c[0] for c in BALL_CORPUS])
    def test_matches_both_lemma52_implementations(self, name, graph):
        matrix = graph.matrix()
        for k, h, i in self.SCHEDULES:
            got = knearest_exact_unloaded(graph, k, h, i)
            assert_identical(got, unloaded(knearest_iterated, matrix, k, h, i))
            assert_identical(got, power_rows(matrix, k, h**i))
            assert (got.k, got.h, got.iterations) == (k, h, i)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 24),
        density=st.floats(0.0, 0.5),
        directed=st.booleans(),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_random_tie_heavy_graphs(self, n, density, directed, k, seed):
        rng = make_rng(seed)
        edges = np.argwhere(rng.random((n, n)) < density)
        graph = WeightedGraph.from_arrays(
            n, edges[:, 0], edges[:, 1],
            rng.integers(1, 4, size=len(edges)).astype(float),
            directed=directed,
        )
        h, i = 2, max(1, (k - 1).bit_length())
        got = knearest_exact_unloaded(graph, k, h, i)
        assert_identical(got, unloaded(knearest_iterated, graph.matrix(), k, h, i))

    def test_rows_with_fewer_than_k_reachable_are_padded(self):
        graph = dict(BALL_CORPUS)["disconnected"]
        got = knearest_exact_unloaded(graph, 16, 2, 4)
        short = (got.indices == -1).any(axis=1)
        assert short.any() and not short.all()
        assert np.all(np.isinf(got.values[got.indices == -1]))
        exact = exact_apsp(graph)
        reachable = np.isfinite(exact).sum(axis=1)
        assert np.array_equal((got.indices >= 0).sum(axis=1), np.minimum(reachable, 16))

    def test_k_at_least_n(self, rng):
        graph = erdos_renyi(24, 0.15, rng, weights=uniform_weights(1, 4))
        for k, h, i in [(24, 5, 2), (40, 7, 2)]:
            got = knearest_exact_unloaded(graph, k, h, i)
            assert_identical(got, unloaded(knearest_iterated, graph.matrix(), k, h, i))
            assert (got.indices[:, :24] >= 0).all() and (got.indices[:, 24:] == -1).all()

    def test_theorem11_schedule(self):
        n = 1024
        graph = erdos_renyi(n, 4 / n, make_rng(7))
        k = params.theorem11_k0(n)
        h, i = params.choose_hop_schedule(n, k)
        assert_identical(
            knearest_exact(graph, k, h, i), knearest_iterated(graph.matrix(), k, h, i)
        )

    def test_ledger_matches_knearest_iterated(self):
        graph = erdos_renyi(256, 4 / 256, make_rng(3))
        k = params.theorem11_k0(256)
        h, i = params.choose_hop_schedule(256, k)
        charged = []
        for run in (
            lambda ledger: knearest_exact(graph, k, h, i, ledger=ledger),
            lambda ledger: knearest_iterated(graph.matrix(), k, h, i, ledger=ledger),
        ):
            ledger = RoundLedger(256)
            run(ledger)
            charged.append([
                (e.phase, e.rounds, e.bandwidth_words, e.detail) for e in ledger
            ])
        assert charged[0] == charged[1]
        assert len(charged[0]) == 2 * i  # two Lemma 2.2 routings per iteration

    def test_schedule_below_k_rejected(self, rng):
        graph = erdos_renyi(40, 0.1, rng)
        with pytest.raises(KNearestInexact, match=r"2\^2 < k = 5"):
            knearest_exact_unloaded(graph, 5, 2, 2)
        assert isinstance(KNearestInexact("x"), ValueError)

    def test_zero_weight_rejected(self, rng):
        graph = clustered_zero_weight_graph(4, 6, rng)
        with pytest.raises(KNearestInexact, match="positive"):
            knearest_exact_unloaded(graph, 4, 2, 2)

    def test_theorem11_on_zero_weights_rejected(self, rng):
        """``apsp_theorem11`` itself takes a ``require_positive=False``
        graph; its first stage refuses rather than answer inexactly."""
        graph = clustered_zero_weight_graph(16, 8, rng)
        with pytest.raises(KNearestInexact):
            apsp_theorem11(graph, make_rng(0))

    def test_load_precondition_enforced(self, rng):
        graph = erdos_renyi(36, 0.3, rng)
        with pytest.raises(LoadPreconditionError):
            knearest_exact(graph, 30, 2, 5)
        knearest_exact_unloaded(graph, 30, 2, 5)

    def test_invalid_arguments(self, rng):
        graph = erdos_renyi(16, 0.3, rng)
        for k, h, i in [(0, 2, 2), (4, 0, 2), (4, 2, 0)]:
            with pytest.raises(ValueError, match="need k, h, iterations"):
                knearest_exact(graph, k, h, i)

    def test_one_row_blocks_do_not_change_the_result(self, monkeypatch):
        """``REPRO_MINPLUS_BUDGET=1`` (one row per block) changes nothing."""
        for _, graph in BALL_CORPUS:
            whole = knearest_exact_unloaded(graph, 7, 3, 2)
            monkeypatch.setenv("REPRO_MINPLUS_BUDGET", "1")
            assert_identical(knearest_exact_unloaded(graph, 7, 3, 2), whole)
            monkeypatch.delenv("REPRO_MINPLUS_BUDGET")

    def test_candidates_never_trail_the_kth_entry(self, monkeypatch):
        """The k-th-value prune: no candidate reaches the merge behind its
        row's current k-th ``(value, ID)`` entry.

        Rows are told apart by their own ``(u, 0)`` entry, which every
        merge carries; the spy tracks each row's k-th entry from the
        merges' outputs.
        """
        module = importlib.import_module("repro.core.knearest")
        real = module._k_smallest_of_candidates
        graph = dict(BALL_CORPUS)["ties"]
        k = 6
        kth = {u: (np.inf, -1) for u in range(graph.n)}
        merges = []

        def spy(rows, cols, values, n_rows, n_cols, k_, held=None):
            out_idx, out_val, below = real(rows, cols, values, n_rows, n_cols, k_, held)
            for r in range(n_rows):
                mine = rows == r
                u = int(cols[mine & (values == 0)][0])
                kth_val, kth_id = kth[u]
                late = (values[mine] > kth_val) | (
                    (values[mine] == kth_val) & (cols[mine] > kth_id)
                )
                assert not late.any(), f"row {u} got a candidate behind {kth[u]}"
                kth[u] = (out_val[r, k_ - 1], out_idx[r, k_ - 1])
            merges.append(n_rows)
            return out_idx, out_val, below

        monkeypatch.setattr(module, "_k_smallest_of_candidates", spy)
        got = knearest_exact_unloaded(graph, k, 3, 2)
        assert merges
        assert_identical(got, unloaded(knearest_iterated, graph.matrix(), k, 3, 2))

    def test_theorem11_never_densifies_its_input(self, monkeypatch):
        """The solve path reads ``graph`` through its CSR only."""
        graph = erdos_renyi(200, 4 / 200, make_rng(5))
        exact = exact_apsp(graph)

        def forbidden():
            raise AssertionError("apsp_theorem11 built the dense input matrix")

        monkeypatch.setattr(graph, "matrix", forbidden)
        result = apsp_theorem11(graph, make_rng(1))
        report = check_estimate(exact, result.estimate)
        assert report.sound and report.max_stretch <= result.factor + 1e-9


def stable_argsort_reference(matrix, k):
    """The historical ``k_smallest_in_rows``: a full stable row argsort."""
    n_rows, n_cols = matrix.shape
    k_eff = min(k, n_cols)
    order = np.argsort(matrix, axis=1, kind="stable")[:, :k_eff]
    values = np.take_along_axis(matrix, order, axis=1)
    finite = np.isfinite(values)
    indices = np.where(finite, order, -1)
    values = np.where(finite, values, np.inf)
    pad = ((0, 0), (0, k - k_eff))
    return (
        np.pad(indices, pad, constant_values=-1),
        np.pad(values, pad, constant_values=np.inf),
    )


@st.composite
def tie_heavy_matrices(draw):
    """Small matrices over {0, 1, 2, 3, inf}: ties at every k-th value."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 40))
    cells = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf]),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.array(cells).reshape(rows, cols)


class TestKSmallestInRows:
    @settings(max_examples=60, deadline=None)
    @given(matrix=tie_heavy_matrices(), k=st.integers(1, 45))
    def test_matches_stable_argsort_on_tie_heavy_rows(self, matrix, k):
        got = k_smallest_in_rows(matrix, k)
        expected = stable_argsort_reference(matrix, k)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    def test_all_equal_and_all_inf_rows(self):
        matrix = np.array([[2.0] * 6, [np.inf] * 6, [0.0, np.inf] * 3])
        for k in (1, 4, 6, 9):
            got = k_smallest_in_rows(matrix, k)
            expected = stable_argsort_reference(matrix, k)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])


def layout_merge_reference(rows, cols, values, n_rows, n_cols, k, held=None):
    """The historical ``_k_smallest_of_candidates``: an argsort groups the
    candidates by ``(row, col)``, ``minimum.reduceat`` keeps each run's
    minimum, and :func:`k_smallest_in_rows` selects on an
    ``(n_rows, widest row)`` layout whose column order is ID order."""
    key = rows * n_cols + cols
    order = np.argsort(key)
    key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    best = np.minimum.reduceat(values[order], starts) if starts.size else values[:0]
    key = key[starts]
    rows = key // n_cols
    counts = np.bincount(rows, minlength=n_rows)
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    width = max(1, int(counts.max(initial=0)))
    by_slot = np.full((n_rows, width), np.inf)
    col_of_slot = np.full((n_rows, width), -1, dtype=np.int64)
    by_slot[rows, slot] = best
    col_of_slot[rows, slot] = key - rows * n_cols
    slots, kept = k_smallest_in_rows(by_slot, k)
    at = np.maximum(slots, 0)
    picked = np.take_along_axis(col_of_slot, at, axis=1)
    below = None
    if held is not None:
        below_slot = np.zeros((n_rows, width), dtype=bool)
        if starts.size:
            below_slot[rows, slot] = best < np.minimum.reduceat(held[order], starts)
        below = np.take_along_axis(below_slot, at, axis=1) & (slots >= 0)
    return np.where(slots >= 0, picked, -1), kept, below


def merge_case(rng, n_rows, n_cols, k):
    """Flat merge input shaped like a ball-growth block.

    Each non-empty row holds up to ``k`` old entries on distinct columns,
    each either expanded (it holds its own value) or waiting (``inf``),
    then candidates (``inf``) that repeat old columns and each other.
    Values come from a short list, so equal values land on different IDs;
    about a quarter of the rows get no entries at all.
    """
    levels = np.array([0.0, 0.5, 1.0, 1.0, 2.0, 2.5, 3.0, 7.25])
    rows, cols, vals, held = [], [], [], []
    for r in np.flatnonzero(rng.random(n_rows) < 0.75):
        size = int(rng.integers(0, min(k, n_cols) + 1))
        old = rng.choice(n_cols, size=size, replace=False)
        old_val = rng.choice(levels, size=old.size)
        expanded = rng.random(old.size) < 0.6
        offers = int(rng.integers(0, 3 * k + 2))
        cand = rng.integers(0, n_cols, offers)
        reuse = rng.random(offers) < 0.3
        if old.size:
            cand[reuse] = rng.choice(old, size=int(reuse.sum()))
        rows.append(np.full(old.size + offers, r))
        cols.append(np.concatenate([old, cand]))
        vals.append(np.concatenate([old_val, rng.choice(levels, size=offers)]))
        held.append(np.concatenate([
            np.where(expanded, old_val, np.inf), np.full(offers, np.inf)
        ]))
    if not rows:
        return [np.zeros(0, dtype=np.int64)] * 2 + [np.zeros(0)] * 2
    return (
        np.concatenate(rows).astype(np.int64),
        np.concatenate(cols).astype(np.int64),
        np.concatenate(vals),
        np.concatenate(held),
    )


class TestCandidateMerge:
    """``_k_smallest_of_candidates`` (packed keys) against the layout merge."""

    @staticmethod
    def assert_same(rows, cols, values, n_rows, n_cols, k, held):
        got = _k_smallest_of_candidates(rows, cols, values, n_rows, n_cols, k, held)
        expected = layout_merge_reference(rows, cols, values, n_rows, n_cols, k, held)
        for g, e in zip(got[:2], expected[:2]):
            assert g.dtype == e.dtype and np.array_equal(g, e)
        if held is None:
            assert got[2] is None and expected[2] is None
        else:
            assert got[2].dtype == bool and np.array_equal(got[2], expected[2])

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n_cols", [1, 2, 8, 9, 32, 33, 64, 65])
    def test_matches_layout_merge(self, seed, n_cols):
        rng = make_rng(1000 + seed)
        n_rows = int(rng.integers(1, 9))
        k = int(rng.integers(1, 12))
        rows, cols, values, held = merge_case(rng, n_rows, n_cols, k)
        self.assert_same(rows, cols, values, n_rows, n_cols, k, held)
        self.assert_same(rows, cols, values, n_rows, n_cols, k, None)

    @pytest.mark.parametrize("seed", range(6))
    def test_single_row(self, seed):
        rng = make_rng(2000 + seed)
        rows, cols, values, held = merge_case(rng, 1, 17, 5)
        self.assert_same(rows, cols, values, 1, 17, 5, held)

    def test_duplicates_and_ties(self):
        """One column offered at several values, one value on several IDs,
        and an expanded entry tied by a candidate (it stays unflagged)."""
        rows = np.array([0, 0, 0, 0, 0, 0, 2, 2, 2], dtype=np.int64)
        cols = np.array([4, 4, 4, 1, 3, 2, 5, 5, 0], dtype=np.int64)
        values = np.array([2.0, 1.0, 3.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
        held = np.array([2.0, np.inf, np.inf, 1.0, np.inf, np.inf, 0.5, np.inf, np.inf])
        for k in (1, 3, 4, 6):
            self.assert_same(rows, cols, values, 3, 6, k, held)
        idx, val, below = _k_smallest_of_candidates(rows, cols, values, 3, 6, 4, held)
        assert idx.tolist() == [[1, 2, 3, 4], [-1] * 4, [0, 5, -1, -1]]
        assert below.tolist() == [
            [False, True, True, True], [False] * 4, [True, False, False, False],
        ]

    def test_no_candidates(self):
        empty = np.zeros(0, dtype=np.int64)
        self.assert_same(empty, empty, np.zeros(0), 3, 4, 2, np.zeros(0))
        self.assert_same(empty, empty, np.zeros(0), 3, 4, 2, None)

    def test_key_wider_than_63_bits_is_refused(self):
        two = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="63-bit merge key"):
            _k_smallest_of_candidates(two, two, np.zeros(2), 2**31, 2**31, 1)


def block_width(offers, k, n, block):
    """``bits(rows) + bits(n) + bits(entries) + 1`` of one merge block."""
    entries = int(offers[block].sum()) + k * (block.stop - block.start)
    rows = block.stop - block.start
    return rows.bit_length() + n.bit_length() + entries.bit_length() + 1


class TestBallGrowthBlocks:
    """The row blocks the ball growth merges in, and what a block costs."""

    def test_blocks_tile_the_rows_under_every_cap(self):
        rng = make_rng(4)
        offers = rng.integers(0, 300, 5000)
        k = 45
        blocks = list(_row_blocks(offers, k, 2048, 4 << 20))
        assert blocks[0].start == 0 and blocks[-1].stop == offers.size
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        cap = min((4 << 20) // knearest_module._BYTES_PER_OFFER,
                  knearest_module._BLOCK_ENTRIES)
        entries = [int(offers[b].sum()) + k * (b.stop - b.start) for b in blocks]
        assert all(e <= cap for e in entries)
        # Each block stops where the next row would break the cap.
        grown = [e + int(offers[b.stop]) + k for e, b in zip(entries, blocks[:-1])]
        assert all(g > cap for g in grown)

    def test_one_row_per_block_when_the_budget_is_tiny(self):
        offers = np.array([5, 0, 300, 7])
        blocks = list(_row_blocks(offers, 3, 64, 1))
        assert [(b.start, b.stop) for b in blocks] == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_key_width_cap_at_n_2_20_under_a_large_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_MINPLUS_BUDGET", str(1 << 50))
        budget = memory_budget_from_env()
        n, k = 1 << 20, 90
        offers = np.full(n, (k - 1) * (k // 6))
        blocks = list(_row_blocks(offers, k, n, budget))
        assert blocks[-1].stop == n
        assert all(block_width(offers, k, n, b) <= 63 for b in blocks)

    def test_key_width_cap_binds_on_a_wide_id_space(self):
        """At ``n = 2^40`` the 63-bit key, not the entry cap, ends blocks."""
        n, k = 1 << 40, 1
        offers = np.zeros(1 << 12, dtype=np.int64)
        blocks = list(_row_blocks(offers, k, n, 1 << 50))
        assert all(block_width(offers, k, n, b) <= 63 for b in blocks)
        assert all(block_width(offers, k, n, slice(b.start, b.stop + 1)) > 63
                   for b in blocks[:-1])
        assert blocks[0].stop - blocks[0].start == 1023

    @pytest.mark.parametrize("budget", [None, 4 << 20])
    def test_traced_peak_stays_near_the_budget(self, monkeypatch, budget):
        """A Theorem 1.1 ball growth (ER n = 2048, k = 45) peaks within
        1.25x the budget plus its ``(n, k)`` state arrays."""
        if budget is not None:
            monkeypatch.setenv("REPRO_MINPLUS_BUDGET", str(budget))
        limit = memory_budget_from_env()
        n, k = 2048, 45
        graph = erdos_renyi(n, 4 / n, make_rng(7))
        graph.csr()
        h, i = params.choose_hop_schedule(n, k)
        tracemalloc.start()
        try:
            knearest_exact(graph, k, h, i)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = n * k * (8 + 8 + 1)  # indices, values, pending
        assert peak <= 1.25 * limit + state


class TestLemma33:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_k_nearest_via_hopset(self, seed):
        """Hopset + ball growth on ``G ∪ H`` gives *exact* N_k distances."""
        rng = make_rng(seed)
        n = 36
        graph = erdos_renyi(n, 0.12, rng)
        exact = exact_apsp(graph)
        a = 3.0
        delta = exact * a
        np.fill_diagonal(delta, 0.0)
        hopset = build_knearest_hopset(graph, delta, a)
        augmented = hopset.augmented(graph)
        k = 6
        result = knearest_exact_via_hopset(augmented, k, 2, hopset.beta_bound)
        for u in range(n):
            ids, dists = brute_force_k_nearest(exact, u, k)
            assert np.allclose(np.sort(result.values[u]), np.sort(dists))
            assert set(result.indices[u].tolist()) == set(ids.tolist())

    @staticmethod
    def _union(graph, a, k=None):
        """``G ∪ H`` for a k-nearest hopset built from ``a * exact``."""
        delta = exact_apsp(graph) * a
        np.fill_diagonal(delta, 0.0)
        hopset = build_knearest_hopset(graph, delta, a, k=k)
        return hopset.augmented(graph), hopset.beta_bound

    @pytest.mark.parametrize(
        "name, k, h",
        [("er", 6, 2), ("heavy-tail", 8, 2), ("directed", 5, 3), ("beta-below-k", 40, 2)],
    )
    def test_matches_knearest_iterated(self, name, k, h):
        """Ball growth on ``G ∪ H`` is bit-identical to Lemma 5.2's
        filtered rounds on its matrix, and charges the same rounds."""
        rng = make_rng(11)
        graph = {
            "er": lambda: erdos_renyi(120, 0.04, rng),
            "heavy-tail": lambda: erdos_renyi(
                150, 0.03, rng, weights=heavy_tail_weights()
            ),
            "directed": lambda: directed_ring_with_chords(
                100, 60, rng, weights=uniform_weights(1, 9)
            ),
            "beta-below-k": lambda: grid_graph(10, rng, weights=uniform_weights(1, 4)),
        }[name]()
        augmented, beta = self._union(graph, 2.0, k=k)
        i = params.knearest_iterations(beta, h)
        if name == "beta-below-k":
            assert h**i < k
        ledgers = [RoundLedger(graph.n), RoundLedger(graph.n)]
        got = unloaded(knearest_exact_via_hopset, augmented, k, h, beta, ledgers[0])
        expected = unloaded(
            knearest_iterated, augmented.matrix(), k, h, i, ledgers[1]
        )
        assert np.array_equal(got.indices, expected.indices)
        assert np.array_equal(got.values, expected.values)
        assert (got.k, got.h, got.iterations) == (k, h, i)
        assert ledgers[0].total_rounds == ledgers[1].total_rounds > 0

    def test_zero_weight_union_rejected(self, rng):
        """No fallback: a zero weight in ``G ∪ H`` refuses, as step 1 does."""
        graph = clustered_zero_weight_graph(4, 6, rng)
        augmented, beta = self._union(graph, 1.0)
        assert augmented.edge_w.min() == 0
        with pytest.raises(KNearestInexact, match="positive"):
            unloaded(knearest_exact_via_hopset, augmented, 4, 2, beta)
