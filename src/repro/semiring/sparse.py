"""Density-aware sparse min-plus products ([CDKL21, Theorem 8]).

Theorem 6.1 of the paper (imported from [CDKL21]) multiplies two matrices
over the min-plus semiring in ``O((rho_S rho_T rho_ST)^{1/3} / n^{2/3} + 1)``
rounds, where ``rho_M`` is the average number of finite entries per row.
The reproduction executes the product with numpy and charges that formula on
the round ledger from the *measured* densities — so the skeleton-graph
construction (Lemma 6.2) is priced exactly as the paper prices it.

Two executions share that pricing: :func:`sparse_minplus` runs dense
factor matrices through the dense :func:`~repro.semiring.kernels.minplus`
product, and :func:`sparse_minplus_join` runs factors given as
``(row, col, value)`` entry triples as a join on the inner index, with
local work proportional to the :func:`join_candidates` it pairs instead
of to ``rows * inner * cols``.  Both return bit-identical products: each
candidate is the same float add, and a minimum does not depend on the
order or multiplicity of its candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..cclique.accounting import RoundLedger
from .kernels import INF, minplus


def density(matrix: np.ndarray) -> float:
    """Average finite entries per row (``rho`` in [CDKL21])."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("density is defined for 2-D matrices")
    return float(np.isfinite(matrix).sum() / max(1, matrix.shape[0]))


@dataclass
class SparseProductResult:
    """Product matrix plus the density triple that priced it."""

    product: np.ndarray
    rho_s: float
    rho_t: float
    rho_st: float
    rounds_charged: int


def sparse_minplus(
    s: np.ndarray,
    t: np.ndarray,
    ledger: Optional[RoundLedger] = None,
    rho_st_bound: Optional[float] = None,
    clique_n: Optional[int] = None,
    detail: str = "sparse min-plus product [CDKL21, Thm 8]",
) -> SparseProductResult:
    """Min-plus product priced by the [CDKL21] sparse-matmul formula.

    Parameters
    ----------
    s, t:
        Factor matrices (``inf`` = semiring zero).  Shapes ``(a, b)`` and
        ``(b, c)``; the clique dimension used in the round formula is the
        ledger's ``n`` (the paper embeds smaller matrices into the clique).
    ledger:
        Ledger to charge; ``None`` executes without accounting (pure math).
    rho_st_bound:
        Optional a-priori bound on the product density.  The paper requires
        ``rho_ST`` known beforehand; where the caller has an analytic bound
        (e.g. ``|S|^2 / n`` in Lemma 6.2) passing it reproduces the paper's
        pricing.  Defaults to the measured product density.
    clique_n:
        Dimension over which densities are averaged.  Rectangular factors
        (e.g. the ``|S| x n`` skeleton matrices) are conceptually embedded
        into ``n x n`` clique matrices; passing the clique size computes
        ``rho`` as total finite entries over ``clique_n`` rows, matching the
        paper's accounting.  Defaults to each factor's own row count.
    """
    product = minplus(s, t)
    if clique_n is not None:
        rho_s = float(np.isfinite(s).sum() / max(1, clique_n))
        rho_t = float(np.isfinite(t).sum() / max(1, clique_n))
        rho_prod = float(np.isfinite(product).sum() / max(1, clique_n))
    else:
        rho_s = density(s)
        rho_t = density(t)
        rho_prod = density(product)
    rho_st = float(rho_st_bound) if rho_st_bound is not None else rho_prod
    rounds = 0
    if ledger is not None:
        rounds = ledger.charge_sparse_matmul(rho_s, rho_t, rho_st, detail=detail)
    return SparseProductResult(
        product=product,
        rho_s=rho_s,
        rho_t=rho_t,
        rho_st=rho_st,
        rounds_charged=rounds,
    )


#: A sparse matrix as parallel ``(rows, cols, values)`` arrays.
Entries = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Candidates paired per block of :func:`sparse_minplus_join`, bounding its
#: scratch memory to a few arrays of this length.
JOIN_BLOCK = 1 << 20


def join_candidates(s_cols: np.ndarray, t_rows: np.ndarray, inner: int) -> int:
    """Candidate sums :func:`sparse_minplus_join` forms for these factors.

    Every ``s`` entry ``(a, t)`` is paired with each ``t`` entry of row
    ``t``, so the count is the sum of those run lengths — known before
    any product work is done (an upper bound when some values are inf,
    which the join drops).
    """
    run_length = np.bincount(t_rows, minlength=inner)
    return int(run_length[s_cols].sum())


def _finite(entries: Entries) -> Entries:
    rows = np.asarray(entries[0], dtype=np.int64)
    cols = np.asarray(entries[1], dtype=np.int64)
    vals = np.asarray(entries[2], dtype=np.float64)
    keep = np.isfinite(vals)
    return rows[keep], cols[keep], vals[keep]


def _distinct_pairs(rows: np.ndarray, cols: np.ndarray, num_cols: int) -> int:
    """Number of distinct ``(row, col)`` positions among the entries."""
    key = np.sort(rows * num_cols + cols)
    return int(len(key) > 0) + int(np.count_nonzero(key[1:] != key[:-1]))


def sparse_minplus_join(
    s: Entries,
    t: Entries,
    shape: Tuple[int, int, int],
    ledger: Optional[RoundLedger] = None,
    rho_st_bound: Optional[float] = None,
    clique_n: Optional[int] = None,
    detail: str = "sparse min-plus product [CDKL21, Thm 8]",
) -> SparseProductResult:
    """:func:`sparse_minplus` over factors given as entry triples.

    ``s`` and ``t`` are ``(rows, cols, values)`` int64/int64/float64
    triples of the ``(a, b)`` and ``(b, c)`` factors, ``shape = (a, b,
    c)``.  Repeated positions mean their minimum and ``inf`` values are
    semiring zeros, so neither needs deduplicating first.  The product
    ``P[i, j] = min_t s[i, t] + t[t, j]`` is formed by pairing each ``s``
    entry with the ``t`` run of its column and scatter-minimising the
    sums into a dense ``(a, c)`` array; it is bit-identical to
    ``sparse_minplus`` on the densified factors, and the densities
    charged — distinct finite positions over ``clique_n`` (or each
    factor's own row count) — are the ones it would measure.
    """
    num_rows, inner, num_cols = shape
    s_rows, s_cols, s_vals = _finite(s)
    t_rows, t_cols, t_vals = _finite(t)
    s_rows_n, t_rows_n, p_rows_n = (
        (clique_n,) * 3 if clique_n is not None else (num_rows, inner, num_rows)
    )
    rho_s = _distinct_pairs(s_rows, s_cols, inner) / max(1, s_rows_n)
    rho_t = _distinct_pairs(t_rows, t_cols, num_cols) / max(1, t_rows_n)

    order = np.argsort(t_rows, kind="stable")
    t_cols, t_vals = t_cols[order], t_vals[order]
    indptr = np.zeros(inner + 1, dtype=np.int64)
    np.cumsum(np.bincount(t_rows, minlength=inner), out=indptr[1:])
    run_start = indptr[s_cols]
    run_length = indptr[s_cols + 1] - run_start
    run_end = np.cumsum(run_length)

    flat = np.full(num_rows * num_cols, INF)
    lo = 0
    while lo < len(s_cols):
        before = run_end[lo] - run_length[lo]
        hi = max(lo + 1, int(np.searchsorted(run_end, before + JOIN_BLOCK, "right")))
        lengths = run_length[lo:hi]
        source = np.repeat(np.arange(lo, hi), lengths)
        position = np.arange(run_end[hi - 1] - before) + np.repeat(
            run_start[lo:hi] - (run_end[lo:hi] - lengths - before), lengths
        )
        np.minimum.at(
            flat,
            s_rows[source] * num_cols + t_cols[position],
            s_vals[source] + t_vals[position],
        )
        lo = hi
    product = flat.reshape(num_rows, num_cols)
    if rho_st_bound is not None:
        rho_st = float(rho_st_bound)
    else:
        rho_st = float(np.isfinite(product).sum() / max(1, p_rows_n))
    rounds = 0
    if ledger is not None:
        rounds = ledger.charge_sparse_matmul(rho_s, rho_t, rho_st, detail=detail)
    return SparseProductResult(
        product=product,
        rho_s=rho_s,
        rho_t=rho_t,
        rho_st=rho_st,
        rounds_charged=rounds,
    )


def embed(matrix: np.ndarray, n: int, fill: float = INF) -> np.ndarray:
    """Embed a smaller matrix into the top-left corner of an ``n x n`` one.

    The Congested Clique always works with ``n x n`` matrices; algorithms on
    a skeleton graph with ``|S| < n`` nodes embed their matrices this way
    (rows/columns beyond ``|S|`` are semiring-zero).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    rows, cols = matrix.shape
    if rows > n or cols > n:
        raise ValueError("matrix larger than the clique")
    out = np.full((n, n), fill, dtype=np.float64)
    out[:rows, :cols] = matrix
    return out
