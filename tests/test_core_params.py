"""Tests for the parameter schedules of core.params."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import params


class TestHopsetBeta:
    def test_grows_with_a_and_d(self):
        assert params.hopset_beta_bound(2, 100) < params.hopset_beta_bound(8, 100)
        assert params.hopset_beta_bound(4, 10) < params.hopset_beta_bound(4, 10**6)

    def test_explicit_formula(self):
        a, d = 3.0, 50.0
        expected = 2 * (math.ceil(a * math.log(d)) + 1) + 1
        assert params.hopset_beta_bound(a, d) == expected

    def test_diameter_floor(self):
        # d < 2 is floored so log stays positive
        assert params.hopset_beta_bound(1, 0.5) == params.hopset_beta_bound(1, 2)

    def test_invalid_a(self):
        with pytest.raises(ValueError):
            params.hopset_beta_bound(0.5, 10)


class TestReductionSchedules:
    def test_h_clamped_at_two(self):
        assert params.reduction_h(1) == 2
        assert params.reduction_h(16) == 2

    def test_h_formula_beyond_clamp(self):
        # a = 65536: a^(1/4)/2 = 8
        assert params.reduction_h(65536) == 8

    def test_k_schedule(self):
        assert params.reduction_k(256, 2) == 16
        assert params.reduction_k(256, 4) == 4

    def test_k_capped_at_sqrt_n(self):
        assert params.reduction_k(100, 1) == 10  # n^(1/1)=100 capped at 10

    def test_b_schedule(self):
        assert params.reduction_b(1) == 2
        assert params.reduction_b(100) == 10

    def test_plan_bundle(self):
        plan = params.plan_reduction(256, 9.0, 1000.0)
        assert plan.a == 9.0
        assert plan.h >= 2
        assert plan.k >= 1
        assert plan.b == 3
        assert plan.promised_factor == pytest.approx(45.0)
        assert plan.h**plan.i >= plan.beta


class TestIterations:
    def test_minimum_iterations(self):
        assert params.knearest_iterations(1, 2) == 1
        assert params.knearest_iterations(2, 2) == 1
        assert params.knearest_iterations(5, 2) == 3
        assert params.knearest_iterations(9, 3) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            params.knearest_iterations(0, 2)
        with pytest.raises(ValueError):
            params.knearest_iterations(4, 1)


class TestFeasibility:
    def test_feasible_cases(self):
        assert params.knearest_feasible(256, 16, 2)
        assert params.knearest_feasible(256, 4, 4)

    def test_infeasible(self):
        assert not params.knearest_feasible(256, 200, 2)
        assert not params.knearest_feasible(0, 1, 1)


class TestTheorem11Schedule:
    def test_k0_clamped_to_sqrt(self):
        # log2(256)^4 = 4096 > sqrt(256) = 16
        assert params.theorem11_k0(256) == 16

    def test_k0_tiny(self):
        assert params.theorem11_k0(1) == 1
        assert params.theorem11_k0(4) == 2

    def test_hop_schedule_feasible(self):
        for n in (64, 256, 1024):
            k = params.theorem11_k0(n)
            h, i = params.choose_hop_schedule(n, k)
            assert h**i >= k
            assert params.knearest_feasible(n, k, h)

    def test_hop_schedule_k_one(self):
        assert params.choose_hop_schedule(100, 1) == (2, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=2**20))
    def test_hop_schedule_feasible_up_to_2_20(self, n):
        k = params.theorem11_k0(n)
        h, i = params.choose_hop_schedule(n, k)
        assert h**i >= k
        assert params.knearest_feasible(n, k, h)

    def test_hop_schedule_table(self):
        # n <= 4096 pins the schedules that always existed; n >= 4225 used
        # to exhaust a fixed i <= 6 cap although h = 2 still fits.
        expected = {64: (3, 2), 256: (4, 2), 1024: (3, 4), 2048: (3, 4),
                    4096: (2, 6), 4225: (2, 7), 8192: (2, 7)}
        for n, schedule in expected.items():
            k = params.theorem11_k0(n)
            assert params.choose_hop_schedule(n, k) == schedule, n

    def test_hop_schedule_infeasible_is_typed(self):
        with pytest.raises(params.HopScheduleInfeasible) as caught:
            params.choose_hop_schedule(16, 100)
        assert isinstance(caught.value, ValueError)
        message = str(caught.value)
        assert "n=16" in message and "k=100" in message
        assert str(params.KNEAREST_LOAD_CONSTANT) in message


class TestMisc:
    def test_skeleton_size_bound(self):
        assert params.skeleton_size_bound(100, 10) == pytest.approx(
            4 * 100 * math.log(10) / 10
        )
        with pytest.raises(ValueError):
            params.skeleton_size_bound(0, 1)

    def test_exact_small_threshold(self):
        assert params.exact_small_threshold(256) == 16
        assert params.exact_small_threshold(4) == 8  # floor of 8
