"""Tests for the chaos harness (repro.chaos): registry, scoring, scenarios."""

import json

import numpy as np
import pytest

from repro.chaos import (
    SCENARIOS,
    ChaosReport,
    RunMetrics,
    delivery_rate,
    recovery_score,
    register_scenario,
    run_scenario,
    stretch_degradation,
)
from repro.chaos.registry import ScenarioSpec

BUILTIN_SCENARIOS = (
    "route-drop",
    "route-crash",
    "route-degrade-delay",
    "route-corrupt",
    "bellman-ford-drop",
    "byzantine-corrupt",
    "pipeline-degrade",
)


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        names = SCENARIOS.names()
        for name in BUILTIN_SCENARIOS:
            assert name in names

    def test_unknown_scenario_raises_with_listing(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            SCENARIOS.get("no-such-scenario")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_scenario(
                "route-drop", summary="dup", faults="x", recovery="y"
            )
            def runner(n, seed, params):  # pragma: no cover - never runs
                return ChaosReport()

    def test_unknown_param_raises(self):
        spec = SCENARIOS.get("route-drop")
        with pytest.raises(ValueError, match="does not accept"):
            spec.resolve_params(no_such_knob=1)

    def test_none_params_fall_back_to_defaults(self):
        spec = SCENARIOS.get("route-drop")
        resolved = spec.resolve_params(drop=None)
        assert resolved["drop"] == spec.default_params["drop"]

    def test_specs_are_frozen(self):
        spec = SCENARIOS.get("route-drop")
        assert isinstance(spec, ScenarioSpec)
        with pytest.raises(AttributeError):
            spec.name = "other"


class TestScoring:
    def test_delivery_rate(self):
        assert delivery_rate(3, 4) == 0.75
        assert delivery_rate(0, 0) == 1.0

    def test_stretch_degradation_identity(self):
        ref = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = stretch_degradation(ref, ref.copy())
        assert out["mean_ratio"] == 1.0
        assert out["max_ratio"] == 1.0
        assert out["degraded_pairs"] == 0
        assert out["disconnected_pairs"] == 0

    def test_stretch_degradation_counts_disconnects(self):
        ref = np.array([[0.0, 2.0], [2.0, 0.0]])
        bad = np.array([[0.0, np.inf], [4.0, 0.0]])
        out = stretch_degradation(ref, bad)
        assert out["disconnected_pairs"] == 1
        assert out["max_ratio"] == 2.0

    def test_recovery_score_shape(self):
        clean = RunMetrics(name="clean", attempted=10, delivered=10, rounds=5)
        faulted = RunMetrics(name="faulted", attempted=10, delivered=6, rounds=5)
        recovered = RunMetrics(
            name="recovered", attempted=10, delivered=9, rounds=8, retries=2
        )
        score = recovery_score(clean, faulted, recovered)
        assert score["delivery_no_recovery"] == 0.6
        assert score["delivery_rate"] == 0.9
        assert score["recovery_gain"] == pytest.approx(0.3)
        assert score["rounds_to_recovery"] == 3
        assert score["retries_used"] == 2
        assert score["perfect"] is False

    def test_report_json_round_trip(self):
        report = run_scenario("route-drop", n=16, seed=1)
        clone = ChaosReport.from_json(report.to_json())
        assert clone.snapshot() == report.snapshot()
        json.dumps(report.snapshot())  # JSON-safe throughout


class TestScenarios:
    def test_zero_drop_is_perfect(self):
        report = run_scenario("route-drop", n=16, seed=0, drop=0.0)
        assert report.score["delivery_no_recovery"] == 1.0
        assert report.score["delivery_rate"] == 1.0
        assert report.score["recovery_gain"] == 0.0
        assert report.score["perfect"] is True

    def test_drop_recovery_strictly_improves(self):
        report = run_scenario("route-drop", n=24, seed=0, drop=0.15, retries=5)
        assert report.score["delivery_no_recovery"] < 1.0
        assert report.score["recovery_gain"] > 0.0
        assert (
            report.score["delivery_rate"]
            > report.score["delivery_no_recovery"]
        )

    def test_crash_replanning_improves_delivery(self):
        report = run_scenario("route-crash", n=24, seed=0)
        assert report.score["recovery_gain"] > 0.0
        # Every row whose endpoints survived was delivered after replan;
        # rows touching the crashed node are gone for good.
        assert report.score["deliverable_rate"] == 1.0
        assert report.score["delivery_rate"] < 1.0
        assert 0 <= report.score["crashed_node"] < 24

    def test_degrade_delay_degrades_gracefully(self):
        report = run_scenario("route-degrade-delay", n=16, seed=0)
        assert report.score["delivery_rate"] == 1.0
        assert report.score["rounds_to_recovery"] > 0

    def test_corrupt_measures_integrity(self):
        report = run_scenario("route-corrupt", n=16, seed=0, corrupt_p=0.5)
        assert report.score["delivery_rate"] == 1.0
        assert report.score["corrupted_rows"] > 0
        assert report.score["payload_integrity"] < 1.0

    def test_corrupt_protected_prefix_keeps_headers_routable(self):
        # Even at p=1.0 every row still arrives (headers shielded).
        report = run_scenario("route-corrupt", n=12, seed=0, corrupt_p=1.0)
        assert report.score["delivery_rate"] == 1.0
        assert report.score["payload_integrity"] == 0.0

    def test_bellman_ford_drop_measures_stretch(self):
        report = run_scenario("bellman-ford-drop", n=24, seed=0, drop=0.1)
        assert report.score["stretch_degradation"] >= 1.0
        assert report.score["compared_pairs"] > 0

    def test_byzantine_corrupt_detection_gap(self):
        report = run_scenario("byzantine-corrupt", n=24, seed=0)
        # The whole point: without checksums nothing is detected, with
        # them every flipped row is quarantined and re-requested.
        assert report.score["detection_rate_baseline"] == 0.0
        assert report.score["detection_rate"] == 1.0
        assert report.score["payload_integrity_baseline"] < 1.0
        assert report.score["payload_integrity"] == 1.0
        assert report.score["payload_integrity_erasure"] == 1.0
        assert report.score["delivery_rate"] == 1.0
        assert "signature" in report.plan

    def test_byzantine_corrupt_records_per_run_detection(self):
        report = run_scenario("byzantine-corrupt", n=16, seed=2)
        runs = report.runs
        assert runs["baseline"]["extra"]["detection_rate"] == 0.0
        assert runs["detected"]["extra"]["detection_rate"] == 1.0
        assert runs["detected"]["fault_totals"]["detected"] > 0

    def test_pipeline_degrade_recovers_estimate(self):
        report = run_scenario("pipeline-degrade", n=32, seed=0)
        # Erasure-coded retransmit ships every edge, so the recovered
        # estimate matches the clean differential reference exactly.
        assert report.score["delivery_no_recovery"] < 1.0
        assert report.score["delivery_rate"] == 1.0
        assert report.score["recovered"] is True
        assert report.score["stretch_recovered"] == 1.0
        assert report.score["stretch_degradation"] >= 1.0
        assert report.runs["recovered"]["reconstructed"] >= 0

    def test_reports_are_deterministic(self):
        a = run_scenario("route-drop", n=16, seed=3)
        b = run_scenario("route-drop", n=16, seed=3)
        assert a.snapshot() == b.snapshot()

    def test_all_scenarios_run_small(self):
        for name in BUILTIN_SCENARIOS:
            report = run_scenario(name, n=12, seed=0)
            assert report.scenario == name
            assert report.n == 12
            assert report.runs  # every scenario logs its runs
            json.dumps(report.snapshot())
