"""Tests for stretch profiling and table rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    emit,
    format_table,
    results_path,
    stretch_profile,
    summarize_stretch,
)
from repro.graphs import (
    ApproximationReport,
    assert_valid_approximation,
    check_estimate,
    is_symmetric,
    symmetrize_min,
)


class TestCheckEstimate:
    def test_perfect_estimate(self):
        exact = np.array([[0.0, 2.0], [2.0, 0.0]])
        report = check_estimate(exact, exact)
        assert report.max_stretch == 1.0
        assert report.sound

    def test_underestimate_detected(self):
        exact = np.array([[0.0, 2.0], [2.0, 0.0]])
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        report = check_estimate(exact, bad)
        assert not report.sound
        assert report.underestimates == 1

    def test_stretch_statistics(self):
        exact = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        est = exact * 3.0
        np.fill_diagonal(est, 0.0)
        report = check_estimate(exact, est)
        assert report.max_stretch == pytest.approx(3.0)
        assert report.mean_stretch == pytest.approx(3.0)

    def test_infinite_pairs_skipped(self):
        exact = np.array([[0.0, np.inf], [np.inf, 0.0]])
        report = check_estimate(exact, exact)
        assert report.pairs_checked == 0

    def test_assert_valid_raises_on_violation(self):
        exact = np.array([[0.0, 2.0], [2.0, 0.0]])
        est = exact * 5.0
        np.fill_diagonal(est, 0.0)
        with pytest.raises(AssertionError):
            assert_valid_approximation(exact, est, alpha=3.0)
        assert_valid_approximation(exact, est, alpha=5.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            check_estimate(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_row_blocks_match_the_whole_matrix_formula(self):
        """n spans several row blocks; every field equals the whole-matrix
        computation, with zero-distance, unreachable and under-estimated
        pairs, and a float32 estimate."""
        rng = np.random.default_rng(3)
        n = 700
        exact = rng.integers(0, 20, (n, n)).astype(float)
        exact[rng.random((n, n)) < 0.05] = np.inf
        np.fill_diagonal(exact, 0.0)
        estimate = exact * rng.uniform(0.9, 3.0, (n, n))
        estimate[rng.random((n, n)) < 0.01] = np.inf
        np.fill_diagonal(estimate, 0.0)
        for candidate in (estimate, estimate.astype(np.float32)):
            want = whole_matrix_report(exact, candidate)
            assert want.underestimates > 0
            assert check_estimate(exact, candidate) == want


def whole_matrix_report(exact, estimate, rtol=1e-9):
    """The one-pass formula ``check_estimate`` computes in row blocks."""
    exact = np.asarray(exact, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    finite = np.isfinite(exact) & ~np.eye(exact.shape[0], dtype=bool)
    d, e = exact[finite], estimate[finite]
    with np.errstate(divide="ignore", invalid="ignore"):
        stretch = np.where(d > 0, e / d, np.where(e > 0, np.inf, 1.0))
    finite_stretch = stretch[np.isfinite(stretch)]
    return ApproximationReport(
        max_stretch=float(np.max(stretch)),
        mean_stretch=float(np.mean(finite_stretch)),
        median_stretch=float(np.median(finite_stretch)),
        underestimates=int(np.sum(e < d * (1.0 - rtol))),
        pairs_checked=int(d.size),
    )


class TestSymmetry:
    def test_is_symmetric_with_inf(self):
        m = np.array([[0.0, np.inf], [np.inf, 0.0]])
        assert is_symmetric(m)

    def test_symmetrize_min(self):
        m = np.array([[0.0, 5.0], [3.0, 0.0]])
        s = symmetrize_min(m)
        assert s[0, 1] == 3.0 and s[1, 0] == 3.0


class TestStretchProfile:
    def test_profile_within_bound(self):
        exact = np.array([[0.0, 1.0], [1.0, 0.0]])
        est = exact * 2.0
        np.fill_diagonal(est, 0.0)
        profile = stretch_profile(exact, est, factor_bound=3.0)
        assert profile.within_bound
        assert profile.percentiles[100] == pytest.approx(2.0)
        summary = summarize_stretch(profile)
        assert "OK" in summary

    def test_profile_violation_flagged(self):
        exact = np.array([[0.0, 1.0], [1.0, 0.0]])
        est = exact * 5.0
        np.fill_diagonal(est, 0.0)
        profile = stretch_profile(exact, est, factor_bound=2.0)
        assert not profile.within_bound
        assert "VIOLATED" in summarize_stretch(profile)


class TestTables:
    def test_format_table_markdown(self):
        table = format_table(
            ["n", "rounds", "stretch"],
            [(64, 10, 1.5), (128, 12, 1.25)],
            title="Demo",
        )
        assert "### Demo" in table
        assert "| 64 " in table
        assert table.count("|") > 6

    def test_float_formatting(self):
        table = format_table(["x"], [(1.0,), (1.23456,)])
        assert "| 1 " in table
        assert "1.235" in table

    def test_emit_to_file(self, tmp_path, capsys):
        sink = tmp_path / "out.md"
        emit("hello", sink_path=str(sink))
        assert "hello" in sink.read_text()
        assert "hello" in capsys.readouterr().out

    def test_results_path_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULTS", raising=False)
        assert results_path() is None
        monkeypatch.setenv("REPRO_RESULTS", "1")
        assert results_path() == "bench_results.md"
        monkeypatch.setenv("REPRO_RESULTS", "custom.md")
        assert results_path() == "custom.md"
