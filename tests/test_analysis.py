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
    symmetrize_min_inplace,
)
from repro.graphs.validation import SYMMETRIZE_TILE as TILE


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


def _bitwise_equal(got, want):
    return got.shape == want.shape and np.array_equal(
        got.view(np.int64), want.view(np.int64)
    )


def _special_values(n, rng):
    """Random distances with inf, NaNs of two payloads and both signed
    zeros planted at mirrored positions, so every pairing meets."""
    m = rng.uniform(0.0, 10.0, (n, n))
    other_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    specials = np.array([np.inf, np.nan, other_nan, 0.0, -0.0, 1.0])
    rows, cols = rng.integers(0, n, (2, 64))
    m[rows, cols] = rng.choice(specials, 64)
    m[cols, rows] = rng.choice(specials, 64)
    return m


class TestSymmetrizeMinInplace:
    """The tiled in-place minimum is ``np.minimum(m, m.T)``, bit for bit."""

    @pytest.mark.parametrize(
        "n", [0, 1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3, 1024]
    )
    def test_bitwise_equal_to_transpose_minimum(self, n):
        m = np.random.default_rng(n).uniform(0.0, 100.0, (n, n))
        want = np.minimum(m, m.T)
        got = symmetrize_min_inplace(m)
        assert got is m
        assert _bitwise_equal(got, want)

    @pytest.mark.parametrize("n", [2, TILE + 1, 2 * TILE + 3])
    def test_inf_nan_and_signed_zeros(self, n):
        m = _special_values(n, np.random.default_rng(7 + n))
        m[0, 1], m[1, 0] = 0.0, -0.0
        m[1, 1] = np.nan
        want = np.minimum(m, m.T)
        assert _bitwise_equal(symmetrize_min_inplace(m), want)

    def test_symmetrize_min_leaves_input_unchanged(self):
        m = _special_values(2 * TILE + 3, np.random.default_rng(1))
        before = m.copy()
        out = symmetrize_min(m)
        assert out is not m
        assert _bitwise_equal(m, before)
        assert _bitwise_equal(out, np.minimum(before, before.T))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            symmetrize_min_inplace(np.zeros((3, 4)))


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
