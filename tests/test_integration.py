"""End-to-end integration tests: the public API across graph families.

Each variant of :func:`repro.approximate_apsp` must, on every workload:

* never underestimate a distance;
* stay within its advertised factor;
* produce a symmetric estimate with zero diagonal;
* charge a positive, plausibly bounded number of rounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import approximate_apsp
from repro.graphs import (
    check_estimate,
    clustered_zero_weight_graph,
    erdos_renyi,
    exact_apsp,
    grid_graph,
    heavy_tail_weights,
    is_symmetric,
    path_with_shortcuts,
    preferential_attachment,
    unit_weights,
)

from tests.helpers import make_rng

VARIANTS = ["theorem11", "small-diameter", "exact"]


def workloads(seed: int):
    rng = make_rng(seed)
    return [
        ("er", erdos_renyi(48, 0.1, rng)),
        ("grid", grid_graph(7, rng)),
        ("path", path_with_shortcuts(48, rng, shortcut_count=5)),
        ("pa", preferential_attachment(48, 2, rng)),
        ("heavy", erdos_renyi(48, 0.12, rng, weights=heavy_tail_weights())),
        ("unit-er", erdos_renyi(48, 8.0 / 48, rng, weights=unit_weights())),
        ("unit-grid", grid_graph(7, rng, weights=unit_weights())),
    ]


class TestPublicAPI:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_contract_on_workloads(self, variant):
        for name, graph in workloads(21):
            rng = make_rng(99)
            exact = exact_apsp(graph)
            result = approximate_apsp(graph, rng=rng, variant=variant)
            report = check_estimate(exact, result.estimate)
            assert report.sound, f"{variant}/{name} underestimates"
            assert report.max_stretch <= result.factor + 1e-9, (
                f"{variant}/{name}: stretch {report.max_stretch} exceeds "
                f"factor {result.factor}"
            )
            assert is_symmetric(result.estimate), f"{variant}/{name}"
            assert np.all(np.diag(result.estimate) == 0)

    def test_tradeoff_variant(self):
        graph = erdos_renyi(48, 0.1, make_rng(22))
        exact = exact_apsp(graph)
        result = approximate_apsp(graph, rng=make_rng(0), variant="tradeoff", t=2)
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9

    def test_tradeoff_requires_t(self):
        graph = erdos_renyi(16, 0.3, make_rng(23))
        with pytest.raises(ValueError):
            approximate_apsp(graph, variant="tradeoff")

    def test_unknown_variant(self):
        graph = erdos_renyi(16, 0.3, make_rng(24))
        with pytest.raises(ValueError):
            approximate_apsp(graph, variant="bogus")

    def test_ledger_attached(self):
        graph = erdos_renyi(48, 0.1, make_rng(25))
        result = approximate_apsp(graph, rng=make_rng(0))
        ledger = result.meta["ledger"]
        assert ledger.total_rounds > 0
        assert ledger.rounds_by_phase()

    def test_zero_weights_transparent(self):
        graph = clustered_zero_weight_graph(6, 8, make_rng(26))
        exact = exact_apsp(graph)
        result = approximate_apsp(graph, rng=make_rng(1), variant="small-diameter")
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9
        assert result.meta["zero_components"] == 6

    def test_deterministic_given_rng(self):
        graph = erdos_renyi(48, 0.1, make_rng(27))
        r1 = approximate_apsp(graph, rng=make_rng(5), variant="small-diameter")
        r2 = approximate_apsp(graph, rng=make_rng(5), variant="small-diameter")
        assert np.allclose(r1.estimate, r2.estimate)


class TestRoundScaling:
    """The headline round-complexity *shape*: our algorithm's ledger rounds
    grow far slower than the exact baseline's as n grows."""

    def test_rounds_vs_exact_baseline(self):
        from repro.cclique import RoundLedger
        from repro.core import exact_apsp_baseline

        ours = []
        exact_rounds = []
        for n in (64, 128):
            graph = erdos_renyi(n, 6.0 / n, make_rng(n))
            ledger = RoundLedger(n)
            approximate_apsp(graph, rng=make_rng(0), variant="small-diameter", ledger=ledger)
            ours.append(ledger.total_rounds)
            baseline_ledger = RoundLedger(n)
            exact_apsp_baseline(graph, ledger=baseline_ledger)
            exact_rounds.append(baseline_ledger.total_rounds)
        # Exact matmul rounds grow ~n^(1/3) log n; ours stay near-flat.
        ours_growth = ours[1] / max(1, ours[0])
        exact_growth = exact_rounds[1] / max(1, exact_rounds[0])
        assert ours_growth < exact_growth + 1.0

    def test_stretch_beats_spanner_baseline(self):
        """Measured stretch of Theorem 7.1 should not exceed the spanner
        baseline's *bound*, while using sub-polynomial rounds."""
        from repro.core import spanner_only_baseline

        graph = erdos_renyi(96, 0.07, make_rng(31))
        exact = exact_apsp(graph)
        ours = approximate_apsp(graph, rng=make_rng(1), variant="small-diameter")
        base = spanner_only_baseline(graph, make_rng(1))
        ours_report = check_estimate(exact, ours.estimate)
        base_report = check_estimate(exact, base.estimate)
        assert ours_report.sound and base_report.sound
