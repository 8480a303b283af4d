"""Tests for the baseline algorithms (Section 1.1 landscape)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cclique import RoundLedger
from repro.core import (
    apsp_small_diameter,
    exact_apsp_baseline,
    spanner_only_baseline,
    uy90_baseline,
)
from repro.graphs import check_estimate, erdos_renyi, exact_apsp
from repro.semiring.kernels import minplus_square

from tests.helpers import make_rng

SEEDS = [0, 1, 2]


class TestExactBaseline:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_dijkstra(self, seed):
        rng = make_rng(seed)
        graph = erdos_renyi(40, 0.15, rng)
        result = exact_apsp_baseline(graph)
        assert np.allclose(result.estimate, exact_apsp(graph))
        assert result.factor == 1.0

    def test_rounds_polynomial(self):
        rng = make_rng(3)
        graph = erdos_renyi(64, 0.1, rng)
        ledger = RoundLedger(64)
        exact_apsp_baseline(graph, ledger=ledger)
        # ceil(log2 64) = 6 products, each n^(1/3) = 4 rounds.
        assert ledger.total_rounds == 6 * 4


class TestUY90Baseline:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_whp(self, seed):
        rng = make_rng(seed)
        graph = erdos_renyi(48, 0.12, rng)
        result = uy90_baseline(graph, rng)
        assert np.allclose(result.estimate, exact_apsp(graph))

    def test_hop_extension_charge_scales_with_s(self):
        """The Bellman-Ford stage costs exactly s rounds (the broadcast
        stage shrinks with s, so the *total* is not monotone at small n)."""
        rng = make_rng(4)
        graph = erdos_renyi(48, 0.12, rng)

        def hop_charge(s):
            ledger = RoundLedger(48)
            uy90_baseline(graph, make_rng(4), ledger=ledger, hop_parameter=s)
            return sum(
                e.rounds for e in ledger.entries if "Bellman-Ford" in e.detail
            )

        assert hop_charge(4) == 4
        assert hop_charge(16) == 16

    def test_estimate_is_sound_even_with_tiny_sample(self):
        """Even when the hitting argument fails, the estimate never
        underestimates (it is built from real path lengths)."""
        rng = make_rng(5)
        graph = erdos_renyi(48, 0.12, rng)
        result = uy90_baseline(graph, rng, hop_parameter=2, oversample=0.1)
        report = check_estimate(exact_apsp(graph), result.estimate)
        assert report.sound


class TestSpannerOnlyBaseline:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_guarantee(self, seed):
        rng = make_rng(seed)
        graph = erdos_renyi(64, 0.1, rng)
        exact = exact_apsp(graph)
        result = spanner_only_baseline(graph, rng)
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9

    def test_constant_rounds(self):
        rng = make_rng(6)
        graph = erdos_renyi(64, 0.1, rng)
        ledger = RoundLedger(64)
        spanner_only_baseline(graph, rng, ledger=ledger)
        exact_ledger = RoundLedger(64)
        exact_apsp_baseline(graph, ledger=exact_ledger)
        # the frontier: spanner-only must be cheaper than exact matmul
        assert ledger.total_rounds < exact_ledger.total_rounds + 50


def test_frontier_constant_factor_rounds_against_exact():
    """Section 1.1's frontier at n = 96: Theorem 7.1's constant factor
    costs under 8x the exact baseline's rounds, and projecting its measured
    rounds by log log log n to n = 10^6 lands below the exact
    (log n * n^(1/3)) and UY90 (sqrt(n)) round formulas there."""
    graph = erdos_renyi(96, 6.0 / 96, make_rng(8))
    ours, exact = RoundLedger(96), RoundLedger(96)
    apsp_small_diameter(graph, make_rng(8), ledger=ours)
    exact_apsp_baseline(graph, ledger=exact)
    assert ours.total_rounds < 8 * exact.total_rounds
    n = 10**6
    projected = ours.total_rounds * math.log2(math.log2(math.log2(n)))
    assert projected < math.ceil(math.log2(n)) * math.ceil(n ** (1 / 3))
    assert projected < math.ceil(math.sqrt(n))


class TestPingPongBufferReuse:
    """Regression: the squaring loops write into a reused spare buffer
    (``out=`` ping-pong) instead of allocating ``(n, n)`` per iteration.
    ``out=`` computes the same float64 values, so the results must stay
    bit-identical to the fresh-allocation formulation."""

    def test_exact_baseline_bit_identical_to_fresh_allocations(self):
        rng = make_rng(7)
        graph = erdos_renyi(48, 0.12, rng)
        reference = np.array(graph.matrix())
        squarings = max(1, math.ceil(math.log2(max(2, graph.n))))
        for _ in range(squarings):
            reference = minplus_square(reference)
        result = exact_apsp_baseline(graph)
        assert np.array_equal(result.estimate, reference)

    def test_uy90_bit_identical_across_runs(self):
        graph = erdos_renyi(40, 0.2, make_rng(11))
        first = uy90_baseline(graph, make_rng(5))
        second = uy90_baseline(graph, make_rng(5))
        assert np.array_equal(first.estimate, second.estimate)
        assert first.meta == second.meta
