"""Validation helpers for distance estimates and approximation guarantees.

Every algorithm in the paper outputs a distance estimate ``delta`` promising
``d(u, v) <= delta(u, v) <= alpha * d(u, v)``.  These helpers check that
contract against ground truth and report where it fails, so tests and
benchmarks share one definition of "stretch".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass
class ApproximationReport:
    """Summary of an estimate's quality against exact distances."""

    max_stretch: float
    mean_stretch: float
    median_stretch: float
    underestimates: int
    pairs_checked: int

    @property
    def sound(self) -> bool:
        """True when no pair is underestimated (the lower-bound contract)."""
        return self.underestimates == 0


#: Rows of ``exact`` / ``estimate`` compared per step of :func:`check_estimate`.
_BLOCK_ROWS = 256


def check_estimate(
    exact: np.ndarray,
    estimate: np.ndarray,
    rtol: float = 1e-9,
) -> ApproximationReport:
    """Compare an APSP estimate with exact distances.

    Only finite, off-diagonal pairs are assessed.  ``underestimates`` counts
    pairs with ``estimate < exact`` beyond tolerance — the paper's contract
    forbids any.  The matrices are read in row blocks, so the only
    full-size temporary is the array of finite stretches the mean and
    median need.
    """
    exact = np.asarray(exact)
    estimate = np.asarray(estimate)
    if exact.shape != estimate.shape:
        raise ValueError("shape mismatch between exact and estimate")
    n = exact.shape[0]
    under, pairs = 0, 0
    block_max, finite_parts = [], []
    for start in range(0, n, _BLOCK_ROWS):
        d = np.asarray(exact[start:start + _BLOCK_ROWS], dtype=np.float64)
        e = np.asarray(estimate[start:start + _BLOCK_ROWS], dtype=np.float64)
        finite = np.isfinite(d)
        rows = np.arange(d.shape[0])
        finite[rows, rows + start] = False
        d, e = d[finite], e[finite]
        with np.errstate(divide="ignore", invalid="ignore"):
            stretch = np.where(d > 0, e / d, np.where(e > 0, np.inf, 1.0))
        under += int(np.sum(e < d * (1.0 - rtol)))
        pairs += int(d.size)
        if stretch.size:
            block_max.append(np.max(stretch))
            finite_parts.append(stretch[np.isfinite(stretch)])
    if pairs == 0:
        return ApproximationReport(1.0, 1.0, 1.0, 0, 0)
    finite_stretch = np.concatenate(finite_parts)
    del finite_parts
    if finite_stretch.size == 0:
        return ApproximationReport(np.inf, np.inf, np.inf, under, pairs)
    mean = float(np.mean(finite_stretch))
    return ApproximationReport(
        max_stretch=float(np.max(block_max)),
        mean_stretch=mean,
        median_stretch=float(np.median(finite_stretch, overwrite_input=True)),
        underestimates=under,
        pairs_checked=pairs,
    )


def assert_valid_approximation(
    exact: np.ndarray,
    estimate: np.ndarray,
    alpha: float,
    rtol: float = 1e-9,
) -> ApproximationReport:
    """Raise ``AssertionError`` unless ``estimate`` is an alpha-approximation."""
    report = check_estimate(exact, estimate, rtol=rtol)
    if not report.sound:
        raise AssertionError(
            f"estimate underestimates {report.underestimates} of "
            f"{report.pairs_checked} pairs"
        )
    if report.max_stretch > alpha * (1.0 + rtol):
        raise AssertionError(
            f"max stretch {report.max_stretch:.4f} exceeds the "
            f"promised factor {alpha:.4f}"
        )
    return report


def is_symmetric(matrix: np.ndarray, rtol: float = 1e-9) -> bool:
    """Whether a (possibly inf-valued) matrix is symmetric."""
    matrix = np.asarray(matrix)
    a, b = matrix, matrix.T
    both_inf = np.isinf(a) & np.isinf(b)
    return bool(np.all(both_inf | np.isclose(a, b, rtol=rtol)))


#: Side of the square tiles :func:`symmetrize_min_inplace` pairs up.  Two
#: 64 x 64 float64 tiles and the saved copy (96 KiB) stay in L2, so each
#: transposed read is served from cache.  Measured on a 2-vCPU x86 host:
#: 20 ms at n = 2048 (32: 34 ms, 128: 24 ms; ``np.minimum(m, m.T)``
#: 115 ms) and 0.56 s at n = 8192 (32: 0.50 s; ``np.minimum`` 2.1 s).
SYMMETRIZE_TILE = 64


def symmetrize_min_inplace(matrix: np.ndarray) -> np.ndarray:
    """Overwrite a square matrix with the entrywise minimum of it and its
    transpose, and return it.

    Bit-identical to ``np.minimum(matrix, matrix.T)`` (NaN and signed
    zeros included: every entry is the same ``np.minimum(m[i, j],
    m[j, i])`` in the same argument order), but it walks mirrored tile
    pairs of :data:`SYMMETRIZE_TILE`, so the transposed operand is read
    from cache, and the only temporary is one saved tile.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square; got {matrix.shape}")
    tile = SYMMETRIZE_TILE
    for i in range(0, n, tile):
        diagonal = matrix[i:i + tile, i:i + tile]
        saved = diagonal.copy()
        np.minimum(saved, saved.T, out=diagonal)
        for j in range(i + tile, n, tile):
            upper = matrix[i:i + tile, j:j + tile]
            lower = matrix[j:j + tile, i:i + tile]
            saved = upper.copy()
            np.minimum(upper, lower.T, out=upper)
            np.minimum(lower, saved.T, out=lower)
    return matrix


def symmetrize_min(matrix: np.ndarray) -> np.ndarray:
    """Entrywise minimum of a matrix and its transpose, as a new array.

    Distance estimates on undirected graphs may be produced asymmetrically
    (Section 4's local computations); taking the minimum preserves the
    lower-bound contract and can only improve the stretch.  The input is
    left unchanged; callers that own the matrix use
    :func:`symmetrize_min_inplace` and skip the copy.
    """
    return symmetrize_min_inplace(np.array(matrix))
