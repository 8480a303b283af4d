"""Tests for the APSP pipelines: Lemma 3.1, Theorems 7.1, 8.1, 1.1, 1.2."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from repro.api import ApspSolver, SolverConfig
from repro.cclique import RoundLedger
from repro.core import (
    apsp_large_bandwidth,
    apsp_round_limited,
    apsp_small_diameter,
    apsp_theorem11,
    apsp_tradeoff,
    reduce_approximation,
    tradeoff_factor_bound,
)
from repro.core.large_bandwidth import WEIGHT_SCALING_PHASE
from repro.graphs import (
    check_estimate,
    erdos_renyi,
    exact_apsp,
    grid_graph,
    polynomial_weights,
)
from repro.spanners import logn_bootstrap

from tests.helpers import graph_family, make_rng, synthetic_approximation

SEEDS = [0, 1, 2]


class TestFactorReduction:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("a", [4.0, 16.0, 64.0, 256.0])
    def test_lemma31_guarantee(self, seed, a):
        """15 sqrt(a) promised; chained factor and measured stretch comply."""
        rng = make_rng(seed)
        graph = erdos_renyi(48, 0.12, rng)
        exact = exact_apsp(graph)
        delta = synthetic_approximation(exact, a, rng)
        result = reduce_approximation(graph, delta, a, rng)
        assert result.factor <= 15.0 * math.sqrt(a) + 1e-9
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9

    def test_constant_rounds(self):
        rng = make_rng(5)
        graph = erdos_renyi(48, 0.12, rng)
        exact = exact_apsp(graph)
        delta = synthetic_approximation(exact, 16.0, rng)
        ledger = RoundLedger(48)
        reduce_approximation(graph, delta, 16.0, rng, ledger=ledger)
        # "O(1)" with our explicit constants: well under 200 even with the
        # O(i) k-nearest iterations at small n.
        assert 0 < ledger.total_rounds < 200

    def test_meta_reports_plan(self):
        rng = make_rng(6)
        graph = erdos_renyi(40, 0.15, rng)
        exact = exact_apsp(graph)
        result = reduce_approximation(graph, exact * 9.0, 9.0, rng)
        assert result.meta["promised_factor"] == pytest.approx(45.0)
        assert result.meta["skeleton_nodes"] >= 1

    def test_directed_rejected(self, rng):
        from repro.graphs import WeightedGraph

        graph = WeightedGraph(3, [(0, 1, 1)], directed=True)
        with pytest.raises(ValueError):
            reduce_approximation(graph, np.zeros((3, 3)), 1.0, rng)


class TestTheorem71:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cc_variant_guarantee(self, seed):
        """Standard model path: factor at most 21."""
        rng = make_rng(seed)
        graph = erdos_renyi(56, 0.1, rng)
        exact = exact_apsp(graph)
        result = apsp_small_diameter(graph, rng)
        assert result.factor <= 21.0 + 1e-9
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cc3_variant_guarantee(self, seed):
        """CC[log^3 n] path: factor at most 7, below the standard model's."""
        rng = make_rng(seed)
        n = 56
        graph = erdos_renyi(n, 0.1, rng)
        exact = exact_apsp(graph)
        words = max(1, math.ceil(math.log2(n) ** 2))
        ledger = RoundLedger(n, bandwidth_words=words)
        result = apsp_small_diameter(graph, rng, ledger=ledger, mode="cc3")
        assert result.factor <= 7.0 + 1e-9
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9
        assert result.factor < apsp_small_diameter(graph, make_rng(seed)).factor

    def test_graph_families(self):
        for name, graph in graph_family(3):
            rng = make_rng(99)
            exact = exact_apsp(graph)
            result = apsp_small_diameter(graph, rng)
            report = check_estimate(exact, result.estimate)
            assert report.sound, name
            assert report.max_stretch <= result.factor + 1e-9, name

    def test_every_seed_sound_and_within_21(self):
        """The w.h.p. claims, seed by seed: Theorem 7.1 and its bootstrap
        over 10 seeds of every graph family."""
        for seed in range(10):
            for name, graph in graph_family(seed):
                exact = exact_apsp(graph)
                ours = apsp_small_diameter(graph, make_rng(seed))
                assert ours.factor <= 21.0
                for result in (ours, logn_bootstrap(graph, make_rng(seed))):
                    report = check_estimate(exact, result.estimate)
                    assert report.sound, (seed, name)
                    assert report.max_stretch <= result.factor + 1e-9, (seed, name)

    def test_small_graph_exact_fallback(self, rng):
        graph = erdos_renyi(8, 0.5, rng)
        result = apsp_small_diameter(graph, rng)
        assert result.factor == 1.0
        assert np.allclose(result.estimate, exact_apsp(graph))

    def test_invalid_mode(self, rng):
        graph = erdos_renyi(32, 0.2, rng)
        with pytest.raises(ValueError):
            apsp_small_diameter(graph, rng, mode="bogus")

    def test_final_stage_skippable(self, rng):
        graph = erdos_renyi(56, 0.1, rng)
        result = apsp_small_diameter(graph, rng, final_stage=False)
        # Without the final stage the factor is the bootstrap/reduction one.
        exact = exact_apsp(graph)
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9


class TestLemma82RoundLimited:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_sound_for_all_t(self, t):
        rng = make_rng(t)
        graph = erdos_renyi(48, 0.12, rng)
        exact = exact_apsp(graph)
        result = apsp_round_limited(graph, t, rng)
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9

    def test_rounds_grow_with_t_at_most_linearly(self):
        rng = make_rng(4)
        graph = erdos_renyi(48, 0.12, rng)
        rounds = []
        for t in (1, 3):
            ledger = RoundLedger(48)
            apsp_round_limited(graph, t, make_rng(4), ledger=ledger)
            rounds.append(ledger.total_rounds)
        # O(t) scaling: t=3 costs at most ~3x of t=1 plus the constant floor.
        assert rounds[1] <= 3 * rounds[0] + 50

    def test_invalid_t(self, rng):
        graph = erdos_renyi(16, 0.3, rng)
        with pytest.raises(ValueError):
            apsp_round_limited(graph, 0, rng)


class TestTheorem81:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_guarantee(self, seed):
        """Factor at most 7^3 (1+eps)^2; estimate sound; stretch within."""
        rng = make_rng(seed)
        graph = erdos_renyi(56, 0.1, rng)
        exact = exact_apsp(graph)
        result = apsp_large_bandwidth(graph, rng, eps=0.1)
        assert result.factor <= 7**3 * 1.1**2 + 1e-6
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9

    def test_heavy_weights_use_multiple_scales(self):
        rng = make_rng(8)
        graph = erdos_renyi(56, 0.1, rng, weights=polynomial_weights(56, 3.0))
        exact = exact_apsp(graph)
        result = apsp_large_bandwidth(graph, rng)
        assert len(result.meta["scales"]) >= 2
        light = apsp_large_bandwidth(erdos_renyi(56, 0.1, make_rng(8)), make_rng(8))
        assert len(result.meta["scales"]) >= len(light.meta["scales"])
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9

    def test_parallel_ledger_composition(self):
        rng = make_rng(9)
        n = 56
        graph = erdos_renyi(n, 0.1, rng)
        ledger = RoundLedger(n)
        apsp_large_bandwidth(graph, rng, ledger=ledger)
        parallel_entries = [
            e for e in ledger.entries if "parallel composition" in e.detail
        ]
        assert len(parallel_entries) == 1
        assert parallel_entries[0].bandwidth_words >= 1


    def test_weight_scaling_phase_is_timed_and_round_free(self):
        """Lemma 8.1's local work is its own zero-round ledger phase; the
        solve's rounds and estimate bytes are the frozen ones."""
        graph = erdos_renyi(56, 0.1, make_rng(9), weights=polynomial_weights(56, 3.0))
        result = ApspSolver(SolverConfig(variant="large-bandwidth", seed=9)).solve(
            graph
        )
        assert result.meta["scales"] == [0, 1, 2]
        assert result.total_rounds == 140
        assert hashlib.sha256(result.estimate.tobytes()).hexdigest() == (
            "4a027bd2e0c37e3cfee924f9b9fb893d7384f123d73ec1bdd3ed894b6c39f524"
        )
        payload = json.loads(result.to_json(include_estimate=False))
        assert payload["seconds_by_phase"][WEIGHT_SCALING_PHASE] > 0.0
        assert WEIGHT_SCALING_PHASE not in payload["rounds_by_phase"]


class TestTheorem11:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_guarantee(self, seed):
        """The headline: factor at most 7^4 (1+eps)^2."""
        rng = make_rng(seed)
        graph = erdos_renyi(64, 0.08, rng)
        exact = exact_apsp(graph)
        result = apsp_theorem11(graph, rng, eps=0.1)
        assert result.factor <= 7**4 * 1.1**2 + 1e-6
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9

    def test_grid(self):
        rng = make_rng(3)
        graph = grid_graph(8, rng)
        exact = exact_apsp(graph)
        result = apsp_theorem11(graph, rng)
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9

    def test_meta_structure(self):
        rng = make_rng(4)
        graph = erdos_renyi(64, 0.08, rng)
        result = apsp_theorem11(graph, rng)
        assert result.meta["k0"] >= 2
        h, i = result.meta["hop_schedule"]
        assert h**i >= result.meta["k0"]
        assert result.meta["skeleton_nodes"] < 64

    def test_directed_rejected(self, rng):
        from repro.graphs import WeightedGraph

        graph = WeightedGraph(3, [(0, 1, 1)], directed=True)
        with pytest.raises(ValueError):
            apsp_theorem11(graph, rng)


class TestTheorem12Tradeoff:
    @pytest.mark.parametrize("t", [1, 2])
    def test_sound_and_within_chained_factor(self, t):
        rng = make_rng(t + 10)
        graph = erdos_renyi(64, 0.08, rng)
        exact = exact_apsp(graph)
        result = apsp_tradeoff(graph, t, rng)
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9
        assert result.meta["t"] == t
        assert result.meta["tradeoff_bound"] > 0

    def test_invalid_t(self, rng):
        graph = erdos_renyi(16, 0.3, rng)
        with pytest.raises(ValueError):
            apsp_tradeoff(graph, 0, rng)

    def test_formula_bound_strictly_decreases_in_t(self):
        """The O(log^(2^-t) n) bound improves with every t."""
        bounds = [tradeoff_factor_bound(1 << 20, t) for t in range(1, 8)]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))


class TestExtendedEstimatesSymmetric:
    """Every pipeline ending in ``extend_estimate`` returns its output as
    is: that step already takes ``min(eta, eta.T)``, so the result must be
    exactly symmetric, non-integer weights included."""

    @staticmethod
    def _fractional_graph(seed):
        from repro.graphs import WeightedGraph

        rng = make_rng(seed)
        base = erdos_renyi(64, 0.08, rng)
        return WeightedGraph.from_arrays(
            64,
            base.edge_u,
            base.edge_v,
            rng.uniform(0.5, 4.0, base.num_edges),
            require_integer=False,
        )

    @pytest.mark.parametrize(
        "solve",
        [
            lambda g, rng: apsp_theorem11(g, rng),
            lambda g, rng: apsp_large_bandwidth(g, rng),
            lambda g, rng: apsp_small_diameter(g, rng),
            lambda g, rng: apsp_small_diameter(g, rng, mode="cc3"),
            lambda g, rng: reduce_approximation(
                g, synthetic_approximation(exact_apsp(g), 16.0, rng), 16.0, rng
            ),
        ],
        ids=["theorem11", "large-bandwidth", "small-diameter", "cc3", "lemma3.1"],
    )
    def test_exactly_symmetric(self, solve):
        graph = self._fractional_graph(11)
        estimate = solve(graph, make_rng(12)).estimate
        assert np.array_equal(estimate, estimate.T)
        assert np.all(np.diag(estimate) == 0.0)
