"""Min-plus (tropical) semiring matrix algebra.

Section 2.1 frames APSP as exponentiation over the tropical semiring
``R = (Z>=0 ∪ {inf}, min, +)``; Section 5 computes *filtered* powers where
each row keeps only its ``k`` smallest entries (ties broken by node ID).
This module provides:

* row filtering with the paper's exact tie-breaking rule,
* a row-sparse representation (``(n, k)`` index/value arrays) and the
  filtered hop power over it — the local computation performed by the
  node assigned an h-combination in the Section 5 algorithm.  The hot
  path (:func:`hop_merge_row_sparse`) stays row-sparse and output
  sensitive; :func:`hop_power_row_sparse` is the dense reference.

The dense products themselves (``minplus``, ``minplus_power``, ...) live
in :mod:`repro.semiring.kernels` and are re-exported here for back-compat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

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

    def with_zero_diagonal(self) -> "RowSparse":
        """The k smallest entries per row once ``(u, u)`` is set to 0.

        Row-sparse equivalent of ``to_dense()``, ``fill_diagonal(0)`` and
        :func:`row_sparse_from_dense`: ``u`` enters its own row even when
        it was filtered out, and is dropped again only if ``k`` lower IDs
        also sit at distance 0.
        """
        n, k = self.indices.shape
        if self.n_cols != n:
            raise ValueError("a zero diagonal needs a square matrix")
        node = np.arange(n)
        keep = (self.indices >= 0) & (self.indices != node[:, None])
        rows, slots = np.nonzero(keep)
        indices, values = _k_smallest_of_candidates(
            np.concatenate([rows, node]),
            np.concatenate([self.indices[rows, slots], node]),
            np.concatenate([self.values[rows, slots], np.zeros(n)]),
            n, n, k,
        )
        return RowSparse(indices=indices, values=values, n_cols=n)


def _k_smallest_of_candidates(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    n_rows: int,
    n_cols: int,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-local k smallest over flat ``(row, col, value)`` candidates.

    A column offered several times keeps its minimum value; then each
    row keeps its ``k`` smallest ``(value, col)`` pairs, padded with
    ``(-1, inf)`` as in :func:`k_smallest_in_rows`.  Candidates must be
    finite.  One integer sort groups the candidates by ``(row, col)``;
    the selection itself runs row-locally on an ``(n_rows, widest row)``
    layout whose column order is ID order.
    """
    key = rows * n_cols + cols
    order = np.argsort(key)
    key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    best = np.minimum.reduceat(values[order], starts) if starts.size else values[:0]
    key = key[starts]
    rows = key // n_cols
    counts = np.bincount(rows, minlength=n_rows)
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    width = max(1, int(counts.max(initial=0)))
    by_slot = np.full((n_rows, width), INF)
    col_of_slot = np.full((n_rows, width), -1, dtype=np.int64)
    by_slot[rows, slot] = best
    col_of_slot[rows, slot] = key - rows * n_cols
    slots, kept = k_smallest_in_rows(by_slot, k)
    picked = np.take_along_axis(col_of_slot, np.maximum(slots, 0), axis=1)
    return np.where(slots >= 0, picked, -1), kept


def row_sparse_from_dense(matrix: np.ndarray, k: int) -> RowSparse:
    """Filter a dense matrix into its k-smallest-per-row sparse form."""
    indices, values = k_smallest_in_rows(matrix, k)
    return RowSparse(indices=indices, values=values, n_cols=matrix.shape[1])


def hop_merge_row_sparse(sparse: RowSparse, hops: int) -> RowSparse:
    """The k smallest entries per row of ``Ā^h``, without densifying.

    ``sparse`` is the filtered matrix ``Ā`` (k entries per row); the
    result holds, for every row, the k smallest ``(value, ID)`` pairs of
    the ``h``-hop power of ``Ā`` with a zero diagonal — exactly the rows
    ``k_smallest_in_rows(hop_power_row_sparse(sparse, h), k)`` returns
    whenever path sums are exact in float64, as they are for the paper's
    integer weights (below 2**53).  It starts from ``T_1``, the k
    smallest of ``Ā`` plus the zero diagonal, and each hop merges
    ``k + k²`` candidates per row ``u``:

    * ``u``'s own ``T_j[u]``,
    * ``w(u, x) + T_j[x][·]`` for each of its k filtered neighbours ``x``.

    Lemma 5.5's argument makes this exact: a node among the k nearest
    within ``j + 1`` hops is reached through the k nearest of a neighbour
    within ``j`` hops.  Because ``D_{j+1} <= D_j`` pointwise, candidates
    above the row's current k-th value are pruned before selection, as are
    those above ``w(u, x)`` plus neighbour ``x``'s k-th value (``x``
    alone already offers k distinct IDs at or below that sum).  A row
    whose own entries and whose neighbours' entries did not change in the
    last hop cannot change in the next, so each hop after the first
    recomputes only the rows next to a change.  Work is ``O(h·n·k²)``
    against the reference's ``O(h·n²·k)``; rows are processed in blocks
    under the :func:`minplus_gather` memory budget.
    """
    if hops < 1:
        raise ValueError("hop bound must be >= 1")
    n, k = sparse.indices.shape
    if sparse.n_cols != n:
        raise ValueError("hop power requires a square matrix")
    memory_budget = memory_budget_from_env()
    # Neighbour slots: the row itself at weight 0 (its own top-k), then
    # its k filtered edges, padding as an inf-weight self loop.
    node = np.arange(n)[:, None]
    nbr = np.hstack([node, np.where(sparse.indices >= 0, sparse.indices, node)])
    wgt = np.hstack(
        [np.zeros((n, 1)), np.where(sparse.indices >= 0, sparse.values, INF)]
    )
    width = (k + 1) * k
    # ~48 bytes of temporaries per candidate (sums, mask, flat ids, sort).
    blk = max(1, min(n, memory_budget // (48 * width)))
    current = sparse.with_zero_diagonal()
    active = np.arange(n)
    for _ in range(hops - 1):
        idx, val = current.indices, current.values
        # Prune above the tightest k-th value bound (slot 0 is the row's
        # own); short rows keep every finite sum.
        tau = np.min(wgt + val[nbr, k - 1], axis=1)[:, None, None]
        tau[tau == INF] = np.finfo(np.float64).max
        new_idx = idx.copy()
        new_val = val.copy()
        for start in range(0, active.size, blk):
            rows = active[start : start + blk]
            through = nbr[rows]
            sums = wgt[rows, :, None] + val[through]
            flat = np.flatnonzero(sums <= tau[rows])
            via, slot = np.divmod(flat, k)
            new_idx[rows], new_val[rows] = _k_smallest_of_candidates(
                flat // width,
                idx[through.ravel()[via], slot],
                sums.ravel()[flat],
                rows.size, n, k,
            )
        changed = (new_idx != idx).any(axis=1) | (new_val != val).any(axis=1)
        if not changed.any():
            break  # T_{j+1} depends on T_j alone: a fixed point
        active = np.flatnonzero(changed[nbr].any(axis=1))
        current = RowSparse(indices=new_idx, values=new_val, n_cols=n)
    return current


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

    This is the dense reference for Lemma 5.5 tests: every hop costs
    ``O(n * k * n)`` element-ops and the output is a full ``(n, n)``
    matrix.  The k-nearest rounds use :func:`hop_merge_row_sparse`,
    which produces the k smallest entries of each row of this matrix in
    ``O(n * k²)`` per hop.
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
