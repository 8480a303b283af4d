"""Min-plus (tropical) semiring matrix algebra.

Section 2.1 frames APSP as exponentiation over the tropical semiring
``R = (Z>=0 ∪ {inf}, min, +)``; Section 5 computes *filtered* powers where
each row keeps only its ``k`` smallest entries (ties broken by node ID).
This module provides:

* row filtering with the paper's exact tie-breaking rule,
* a row-sparse representation (``(n, k)`` index/value arrays) and the
  filtered hop power over it (:func:`hop_power_row_sparse`, dense
  output) — the local computation performed by the node assigned an
  h-combination in the Section 5 algorithm;
* the row-local k-smallest merge of flat candidates
  (:func:`_k_smallest_of_candidates`) that the k-nearest ball growth of
  :mod:`repro.core.knearest` runs on: two in-place sorts of one packed
  int64 key per block.

The dense products themselves (``minplus``, ``minplus_power``, ...) live
in :mod:`repro.semiring.kernels` and are re-exported here for back-compat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .kernels import (  # noqa: F401  (re-exported for back-compat)
    INF,
    memory_budget_from_env,
    minplus,
    minplus_gather,
    minplus_power,
    minplus_square,
)


def k_smallest_in_rows(matrix: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Indices and values of the ``k`` smallest entries per row.

    Ties are broken by column index (= node ID), matching the paper's
    convention ("breaking ties by node IDs").  Rows with fewer than ``k``
    finite entries are padded with ``(-1, inf)``.

    Each row's k-th value comes from ``np.partition``; the entries at or
    below it are kept (surplus ties at the k-th value drop from the highest
    column down) and only those ``k`` are sorted.  The result is the
    prefix of a stable row ``argsort``, at a fraction of its cost.

    Returns
    -------
    (indices, values):
        Both of shape ``(n, k)``; ``indices`` is int64, padded with -1.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n_rows, n_cols = matrix.shape
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    k_eff = min(k, n_cols)
    indices = np.full((n_rows, k), -1, dtype=np.int64)
    values = np.full((n_rows, k), INF)
    if k_eff == 0 or n_rows == 0:
        return indices, values
    kth = np.partition(matrix, k_eff - 1, axis=1)[:, k_eff - 1]
    kth[np.isnan(kth)] = INF  # NaN sorts last, like inf: both become padding
    take = matrix <= kth[:, None]
    take &= matrix != INF  # inf entries end as padding wherever they sort
    excess = take.sum(axis=1) - k_eff
    crowded = np.flatnonzero(excess > 0)
    if crowded.size:
        tie_row, tie_col = np.nonzero(matrix[crowded] == kth[crowded, None])
        ties = np.bincount(tie_row, minlength=crowded.size)
        rank = np.arange(tie_row.size) - (np.cumsum(ties) - ties)[tie_row]
        drop = rank >= (ties - excess[crowded])[tie_row]
        take[crowded[tie_row[drop]], tie_col[drop]] = False
    rows, cols = np.nonzero(take)  # row-major: ascending column per row
    counts = np.bincount(rows, minlength=n_rows)
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    kept_val = np.full((n_rows, k_eff), INF)
    kept_idx = np.full((n_rows, k_eff), -1, dtype=np.int64)
    kept_val[rows, slot] = matrix[rows, cols]
    kept_idx[rows, slot] = cols
    # Stable on values whose columns ascend: the (value, ID) order.
    order = np.argsort(kept_val, axis=1, kind="stable")
    kept_val = np.take_along_axis(kept_val, order, axis=1)
    kept_idx = np.take_along_axis(kept_idx, order, axis=1)
    finite = np.isfinite(kept_val)
    indices[:, :k_eff] = np.where(finite, kept_idx, -1)
    values[:, :k_eff] = np.where(finite, kept_val, INF)
    return indices, values


def filter_rows(matrix: np.ndarray, k: int) -> np.ndarray:
    """The filtered matrix ``Ā``: keep the k smallest entries per row.

    All other entries are set to ``inf`` (Section 5.4).  The diagonal is
    *not* treated specially: with a zero diagonal it always survives the
    filter (0 is minimal and self-ID ties are irrelevant).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    indices, values = k_smallest_in_rows(matrix, k)
    out = np.full_like(matrix, INF)
    rows = np.repeat(np.arange(matrix.shape[0]), indices.shape[1])
    cols = indices.ravel()
    vals = values.ravel()
    keep = cols >= 0
    out[rows[keep], cols[keep]] = vals[keep]
    return out


@dataclass
class RowSparse:
    """Row-sparse matrix: each row holds at most ``k`` finite entries.

    ``indices[i, j] = -1`` marks a padding slot (value ``inf``).  This is the
    object a node actually stores in the Section 5 algorithm: its local list
    ``M(u)`` of k outgoing edges.
    """

    indices: np.ndarray  # (n, k) int64, -1 = empty
    values: np.ndarray  # (n, k) float64, inf on empty slots
    n_cols: int

    @property
    def n_rows(self) -> int:
        return self.indices.shape[0]

    @property
    def k(self) -> int:
        return self.indices.shape[1]

    def density(self) -> float:
        """Average finite entries per row (the rho of [CDKL21])."""
        return float(np.isfinite(self.values).sum() / max(1, self.n_rows))

    def to_dense(self) -> np.ndarray:
        """Dense matrix with inf in unfilled slots."""
        out = np.full((self.n_rows, self.n_cols), INF)
        rows = np.repeat(np.arange(self.n_rows), self.k)
        cols = self.indices.ravel()
        vals = self.values.ravel()
        keep = cols >= 0
        np.minimum.at(out, (rows[keep], cols[keep]), vals[keep])
        return out


def _k_smallest_of_candidates(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    n_rows: int,
    n_cols: int,
    k: int,
    held: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Row-local k smallest over flat ``(row, col, value)`` candidates.

    A column offered several times keeps its minimum value; then each
    row keeps its ``k`` smallest ``(value, col)`` pairs, padded with
    ``(-1, inf)`` as in :func:`k_smallest_in_rows`.  ``rows`` and
    ``cols`` are int64; candidates must be finite and non-negative.

    The merge sorts one packed int64 key twice, in place.  The values
    are ranked by distinct value; ``(row, col, rank, bit)`` sorts each
    ``(row, col)`` run with its minimum first, and the runs' first keys,
    re-packed as ``(row, rank, col, bit)`` and sorted again, line each
    row up in ``(value, ID)`` order.  The fields take ``bits(n_rows -
    1) + bits(n_cols - 1) + bits(len(values) - 1) + 1`` bits, which
    must not exceed 63 (``ValueError`` otherwise).

    ``held``, when given, holds one value per candidate: the candidate's
    own value where the entry *holds* it, ``inf`` where it holds
    nothing.  The third result then flags the kept entries whose value
    lies below every value held in their ``(row, col)``, and is ``None``
    otherwise.  The key's ``bit`` is 1 on an entry that holds nothing,
    so a holding entry sorts ahead of an equal-valued one and a run's
    first key carries the flag.
    """
    size = values.size
    row_bits = max(int(n_rows) - 1, 0).bit_length()
    col_bits = max(int(n_cols) - 1, 0).bit_length()
    rank_bits = max(size - 1, 0).bit_length()
    if row_bits + col_bits + rank_bits + 1 > 63:
        raise ValueError(
            f"{n_rows} rows x {n_cols} columns x {size} candidates do not "
            f"fit a 63-bit merge key"
        )
    if not size:
        return (
            np.full((n_rows, k), -1, dtype=np.int64),
            np.full((n_rows, k), INF),
            None if held is None else np.zeros((n_rows, k), dtype=bool),
        )
    order = np.argsort(values)
    ordered = values[order]
    fresh = np.empty(size, dtype=bool)  # a new distinct value starts here
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    distinct = ordered[starts]
    key = rows << col_bits
    key |= cols
    key <<= 1
    if held is not None:
        key |= held != values
    key = key[order]  # (row, col, bit) in value order: insert the rank
    low = np.repeat(np.arange(0, 2 * starts.size, 2), np.diff(starts, append=size))
    low |= key & 1
    key &= -2
    key <<= rank_bits
    key |= low
    key.sort()
    below_col = rank_bits + 1  # the (rank, bit) fields under (row, col)
    pair = key >> below_col
    first = np.empty(size, dtype=bool)
    first[:1] = True
    np.not_equal(pair[1:], pair[:-1], out=first[1:])
    # Re-pack each run's first key: the row stays on top, (col, rank)
    # swap under it.
    col = pair[first]
    col &= (1 << col_bits) - 1
    col <<= 1
    key = key[first]
    low = key & ((1 << below_col) - 1)
    col |= low & 1
    low >>= 1
    low <<= col_bits + 1
    low |= col
    key >>= below_col + col_bits
    key <<= below_col + col_bits
    key |= low
    key.sort()
    # Each row's first k keys, gathered straight into (n_rows, k).
    bounds = np.searchsorted(key, np.arange(n_rows + 1) << (below_col + col_bits))
    slot = np.arange(k)
    padding = slot >= np.diff(bounds)[:, None]
    kept = key.take(bounds[:-1, None] + slot, mode="clip")
    rank = kept >> (col_bits + 1)
    rank &= (1 << rank_bits) - 1
    kept_val = distinct[rank]
    kept_val[padding] = INF
    below = None
    if held is not None:
        below = (kept & 1).astype(bool)
        below[padding] = False
    kept >>= 1
    kept &= (1 << col_bits) - 1
    kept[padding] = -1
    return kept, kept_val, below


def row_sparse_from_dense(matrix: np.ndarray, k: int) -> RowSparse:
    """Filter a dense matrix into its k-smallest-per-row sparse form."""
    indices, values = k_smallest_in_rows(matrix, k)
    return RowSparse(indices=indices, values=values, n_cols=matrix.shape[1])


def hop_power_row_sparse(
    sparse: RowSparse,
    hops: int,
    include_zero_diagonal: bool = True,
) -> np.ndarray:
    """Exact ``h``-hop distances in the filtered graph: ``Ā^h`` (dense).

    Bellman-Ford over the row-sparse structure: ``h`` rounds of
    ``D[u, :] <- min(D[u, :], min_j (w(u, nbr_j) + D[nbr_j, :]))``.
    With a zero diagonal, the result after ``h`` rounds is the minimum
    length over paths with at most ``h`` edges of ``Ā``.

    Every hop costs ``O(n * k * n)`` element-ops and the output is a
    full ``(n, n)`` matrix; :func:`repro.core.knearest.knearest_iterated`
    builds its rounds on it.
    """
    if hops < 1:
        raise ValueError("hop bound must be >= 1")
    n = sparse.n_rows
    if sparse.n_cols != n:
        raise ValueError("hop power requires a square matrix")
    dist = sparse.to_dense()
    if include_zero_diagonal:
        np.fill_diagonal(dist, 0.0)
    # Replace -1 padding with self-loops of weight inf (harmless).
    nbr = np.where(sparse.indices >= 0, sparse.indices, np.arange(n)[:, None])
    wgt = np.where(sparse.indices >= 0, sparse.values, INF)
    current = dist
    for _ in range(hops - 1):
        # candidate[u, v] = min_j w(u, nbr_j) + current[nbr_j, v], blocked
        # through the kernel layer's gathered product.
        candidate = minplus_gather(wgt, nbr, current)
        updated = np.minimum(current, candidate)
        if np.array_equal(updated, current):
            break
        current = updated
    return current


def filtered_hop_power(matrix: np.ndarray, hops: int, k: int) -> np.ndarray:
    """``filter_k(A)`` raised to the ``h``-th hop power, dense output.

    This is the quantity ``Ā^h`` from Lemma 5.4/5.5.  By Lemma 5.5 its
    k-smallest row entries equal those of ``A^h`` when ``A`` has a zero
    diagonal; tests verify that equality.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    sparse = row_sparse_from_dense(matrix, k)
    return hop_power_row_sparse(sparse, hops)


def rows_agree_on_k_smallest(
    a: np.ndarray,
    b: np.ndarray,
    k: int,
) -> bool:
    """Whether two matrices have identical k-smallest row entries.

    Used by tests for Lemma 5.5 (``Ā^h`` and ``A^h`` agree on the filtered
    positions, including the ID tie-break).
    """
    ia, va = k_smallest_in_rows(a, k)
    ib, vb = k_smallest_in_rows(b, k)
    values_match = np.allclose(
        np.where(np.isfinite(va), va, -1.0),
        np.where(np.isfinite(vb), vb, -1.0),
    )
    return bool(values_match and np.array_equal(ia, ib))
