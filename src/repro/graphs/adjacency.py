"""Array-native adjacency: the shared CSR view of a :class:`WeightedGraph`.

The construction phases of the paper (Lemma 7.1 spanners, Lemma 3.2
hopsets, Lemma 6.1 skeletons) all walk "the outgoing edges of ``u``" —
historically through per-vertex Python structures (``adjacency()`` lists,
ad-hoc ``Dict[int, Dict[int, float]]`` rebuilds).  This module is the one
array-native replacement: a compressed-sparse-row view with each row
sorted by ``(weight, neighbour id)`` — the paper's tie-breaking convention
— built once per graph and cached (``WeightedGraph.csr()``).

On top of the raw view it provides the vectorized primitives the
construction layer is written in:

* :func:`k_lightest_per_row` — "the k shortest outgoing edges of every
  node" as padded ``(n, k)`` arrays (Sections 4 and 5);
* :func:`min_dedup_edges` — collapse parallel ``(u, v)`` records keeping
  the lightest (what a min-plus multigraph means by an edge);
* :func:`group_min_reduce` — lightest ``(weight, value)`` per integer
  group key, the reduction behind "best edge per adjacent cluster";
* :func:`batched_sssp` / :func:`sssp_on_edges` — exact single-source
  distances on edge arrays via one :func:`scipy.sparse.csgraph.dijkstra`
  call (block-diagonal batching for many independent local subgraphs).

Every canonicalisation sort here is one int64 key and one sort, never a
multi-key ``np.lexsort``; the picks are exactly the lexsort ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

INF = np.inf
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class CSRAdjacency:
    """Outgoing adjacency in CSR form, rows sorted by ``(weight, id)``.

    ``indices[indptr[u]:indptr[u+1]]`` are the neighbours of ``u`` in the
    repo-wide order (lightest edge first, node ID tie-break), so the first
    ``k`` entries of a row are exactly the "k shortest outgoing edges of
    u" of Sections 4 and 5.  For undirected graphs both orientations are
    stored.  Arrays are read-only; the view is cached per graph.
    """

    indptr: np.ndarray  # (n + 1,) int64
    indices: np.ndarray  # (m,) int64
    weights: np.ndarray  # (m,) float64

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_entries(self) -> int:
        return len(self.indices)

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree per node (``(n,)`` int64)."""
        return np.diff(self.indptr)

    def row(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbour ids, weights)`` of ``u``, (weight, id)-sorted views."""
        lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
        return self.indices[lo:hi], self.weights[lo:hi]

    def rows_of(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated rows of ``nodes``: ``(source, neighbour, weight)``.

        The gather is fully vectorized (no per-node Python loop): entry
        positions are reconstructed from ``indptr`` with a repeat/cumsum
        offset trick.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        deg = self.indptr[nodes + 1] - self.indptr[nodes]
        total = int(deg.sum())
        if total == 0:
            empty_i = np.zeros(0, dtype=np.int64)
            return empty_i, empty_i.copy(), np.zeros(0, dtype=np.float64)
        offsets = np.cumsum(deg) - deg
        pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets, deg)
            + np.repeat(self.indptr[nodes], deg)
        )
        return np.repeat(nodes, deg), self.indices[pos], self.weights[pos]


def build_csr(
    n: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_w: np.ndarray,
    directed: bool,
) -> CSRAdjacency:
    """Build the (weight, id)-sorted CSR view from canonical edge arrays.

    ``edge_*`` are the deduplicated arrays a :class:`WeightedGraph` stores
    (one record per undirected edge); undirected graphs get both
    orientations materialised here.
    """
    # Rank the weights so that (src, weight, dst) packs into one int64 key.
    distinct, rank = np.unique(edge_w, return_inverse=True)
    if directed:
        src, dst, wgt = edge_u, edge_v, edge_w
    else:
        src = np.concatenate([edge_u, edge_v])
        dst = np.concatenate([edge_v, edge_u])
        wgt = np.concatenate([edge_w, edge_w])
        rank = np.concatenate([rank, rank])
    key = _packed_key((src, rank, dst), (n, len(distinct), n))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    # Canonical input has unique (src, dst) pairs, hence unique keys: the
    # order is fully determined and needs no stable sort.  Each temporary
    # is dropped as soon as it is spent, which bounds the peak on dense
    # inputs such as G ∪ H.
    del src, rank
    order = np.argsort(key)
    del key
    dst, wgt = dst[order], wgt[order]
    for arr in (indptr, dst, wgt):
        arr.setflags(write=False)
    return CSRAdjacency(indptr=indptr, indices=dst, weights=wgt)


def k_lightest_per_row(
    csr: CSRAdjacency, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` lightest outgoing edges per node as ``(n, k)`` arrays.

    Returns ``(indices, weights)`` padded with ``(-1, inf)`` — the same
    convention as :func:`repro.semiring.minplus.k_smallest_in_rows`.
    Rows are already (weight, id)-sorted, so this is a pure scatter.
    """
    k = max(0, int(k))
    n = csr.n
    out_idx = np.full((n, k), -1, dtype=np.int64)
    out_w = np.full((n, k), INF, dtype=np.float64)
    if k == 0 or csr.num_entries == 0:
        return out_idx, out_w
    deg = csr.degrees
    rows = np.repeat(np.arange(n, dtype=np.int64), deg)
    slot = np.arange(csr.num_entries, dtype=np.int64) - np.repeat(
        csr.indptr[:-1], deg
    )
    keep = slot < k
    out_idx[rows[keep], slot[keep]] = csr.indices[keep]
    out_w[rows[keep], slot[keep]] = csr.weights[keep]
    return out_idx, out_w


def _check_parallel(*arrays: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``arrays`` are 1-D and of equal length."""
    if any(a.ndim != 1 for a in arrays) or len({len(a) for a in arrays}) > 1:
        shapes = ", ".join(str(a.shape) for a in arrays)
        raise ValueError(f"expected 1-D arrays of equal length, got {shapes}")


def _packed_key(digits: Sequence[np.ndarray], radices: Sequence[int]) -> np.ndarray:
    """One int64 sort key from mixed-radix digits, most significant first.

    ``digits[i]`` must lie in ``[0, radices[i])``; the key then orders the
    entries exactly as a lexicographic sort on the digit tuples would.
    Raises ``OverflowError`` when the key space does not fit in int64,
    rather than letting the key wrap around.
    """
    if math.prod(int(r) for r in radices) - 1 > _INT64_MAX:
        raise OverflowError(
            f"sort key space {' x '.join(str(int(r)) for r in radices)} "
            "does not fit in int64"
        )
    key = np.asarray(digits[0], dtype=np.int64)
    for digit, radix in zip(digits[1:], radices[1:]):
        key = key * int(radix) + digit
    return key


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Start positions of the runs of equal values in a sorted array."""
    boundary = np.ones(len(sorted_values), dtype=bool)
    boundary[1:] = sorted_values[1:] != sorted_values[:-1]
    return np.flatnonzero(boundary)


def _first_least_per_group(
    keys: np.ndarray, columns: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per distinct key: the first input index whose ``columns`` tuple is least.

    Picks exactly what ``np.lexsort((*reversed(columns), keys))`` plus a
    first-of-group mask picks (lexsort is stable, so full ties go to the
    lowest input index, and NaN orders after every number), from one
    stable sort on ``keys``: each column then only filters every group
    down to the entries at its group minimum.  Returns
    ``(unique_keys, indices)``, ``unique_keys`` ascending.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = _run_starts(sorted_keys)
    group = np.repeat(
        np.arange(len(starts)), np.diff(starts, append=len(order))
    )
    for column in columns:
        if len(order) == len(starts):
            break  # every group is down to a single entry
        values = column[order]
        least = np.fmin.reduceat(values, _run_starts(group))[group]
        # An all-NaN group keeps every entry, as lexsort ties them last.
        keep = (values == least) | np.isnan(least)
        order, group = order[keep], group[keep]
    return sorted_keys[starts], order[_run_starts(group)]


def min_dedup_edges(
    src: np.ndarray, dst: np.ndarray, wgt: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse duplicate ``(src, dst)`` records, keeping the minimum weight.

    The output is sorted by ``(src, dst)`` (ids int64, weights float64).
    This is the array equivalent of the historical
    ``Dict[int, Dict[int, float]]`` min-merge, and the required
    canonicalisation before handing edge arrays to scipy's ``csr_matrix``
    (whose COO constructor *sums* duplicates).

    The pairs are packed into one int64 key ``(src - lo) * span + (dst -
    lo)`` and sorted once (stable).  Input whose key is already strictly
    increasing — canonical edge arrays — is returned as is, without a
    sort, so the outputs may then be the input arrays themselves.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    wgt = np.asarray(wgt, dtype=np.float64)
    _check_parallel(src, dst, wgt)
    if len(src) == 0:
        return src, dst, wgt
    lo = min(int(src.min()), int(dst.min()))
    span = max(int(src.max()), int(dst.max())) - lo + 1
    key = _packed_key((src - lo, dst - lo), (span, span))
    if np.all(key[1:] > key[:-1]):
        return src, dst, wgt
    _, best = _first_least_per_group(key, (wgt,))
    return src[best], dst[best], wgt[best]


def group_argmin(
    keys: np.ndarray,
    weights: np.ndarray,
    tiebreak: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per distinct ``key``: the index of the entry with lexicographically
    least ``(weight, tiebreak)``.

    Returns ``(unique_keys, argmin_indices)`` with ``unique_keys`` sorted
    ascending; ``argmin_indices[i]`` points into the input arrays, so any
    parallel payload array can be gathered by the caller.  Full ties go
    to the lowest input index.  One stable sort on ``keys``, then a
    per-group minimum filter on ``weights`` and on ``tiebreak`` — the
    reduction behind "lightest edge per (vertex, adjacent cluster),
    neighbour-ID tie-break".
    """
    keys = np.asarray(keys)
    weights = np.asarray(weights)
    tiebreak = np.asarray(tiebreak)
    _check_parallel(keys, weights, tiebreak)
    if len(keys) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return _first_least_per_group(keys, (weights, tiebreak))


def group_min_reduce(
    keys: np.ndarray,
    weights: np.ndarray,
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per distinct ``key``: the entry with lexicographically least
    ``(weight, value)``.

    Returns ``(unique_keys, best_weights, best_values)`` with
    ``unique_keys`` sorted ascending.  This is the "lightest edge to each
    adjacent cluster, neighbour-ID tie-break" reduction of the
    Baswana–Sen construction, lifted to one sort + one mask.
    """
    if len(keys) == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=np.int64),
        )
    weights, values = np.asarray(weights), np.asarray(values)
    unique_keys, best = group_argmin(keys, weights, values)
    return unique_keys, weights[best], values[best]


def sssp_on_edges(
    n_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    wgt: np.ndarray,
    sources: Sequence[int],
    directed: bool = True,
) -> np.ndarray:
    """Exact distances from ``sources`` over raw edge arrays.

    Edges are min-deduplicated, assembled into one scipy CSR matrix, and
    solved with a single :func:`~scipy.sparse.csgraph.dijkstra` call.
    Returns ``(len(sources), n_nodes)`` with ``inf`` for unreachable.
    """
    src, dst, wgt = min_dedup_edges(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(wgt, dtype=np.float64),
    )
    matrix = csr_matrix((wgt, (src, dst)), shape=(n_nodes, n_nodes))
    out = dijkstra(matrix, directed=directed, indices=list(sources))
    return np.atleast_2d(out)


def batched_sssp(
    n_nodes: int,
    block_src: np.ndarray,
    block_dst: np.ndarray,
    block_wgt: np.ndarray,
    block_id: np.ndarray,
    block_sources: np.ndarray,
    dedup: bool = True,
) -> np.ndarray:
    """Independent SSSPs on per-block local subgraphs, one dijkstra call.

    Block ``b`` owns the directed edges ``(block_src[i], block_dst[i])``
    with ``block_id[i] == b`` and the source ``block_sources[b]`` — node
    ids are *global* (``0 .. n_nodes-1``) and blocks do not interact: the
    edges are laid out block-diagonally (block ``b`` shifted by
    ``b * n_nodes``) so a single multi-source dijkstra solves every local
    computation at once.  Returns ``(num_blocks, n_nodes)`` distances,
    row ``b`` being block ``b``'s view of the global node set.

    This is the Step-3 engine of the Lemma 3.2 hopset: each node's "local
    shortest-path computation on the received edges" is one block.

    Pass ``dedup=False`` only when the caller guarantees no duplicate
    ``(block, src, dst)`` records (scipy's COO constructor *sums*
    duplicates, which is wrong for parallel min-plus edges).
    """
    num_blocks = len(block_sources)
    if num_blocks == 0:
        return np.zeros((0, n_nodes), dtype=np.float64)
    shift = np.asarray(block_id, dtype=np.int64) * n_nodes
    src = np.asarray(block_src, dtype=np.int64) + shift
    dst = np.asarray(block_dst, dtype=np.int64) + shift
    wgt = np.asarray(block_wgt, dtype=np.float64)
    if dedup:
        src, dst, wgt = min_dedup_edges(src, dst, wgt)
    total = num_blocks * n_nodes
    matrix = csr_matrix((wgt, (src, dst)), shape=(total, total))
    sources = (
        np.asarray(block_sources, dtype=np.int64)
        + np.arange(num_blocks, dtype=np.int64) * n_nodes
    )
    dist = dijkstra(matrix, directed=True, indices=sources)
    dist = np.atleast_2d(dist)
    # Row b only ever reaches its own diagonal block; slice it back out.
    return dist.reshape(num_blocks, num_blocks, n_nodes)[
        np.arange(num_blocks), np.arange(num_blocks)
    ]


__all__ = [
    "CSRAdjacency",
    "build_csr",
    "k_lightest_per_row",
    "min_dedup_edges",
    "group_argmin",
    "group_min_reduce",
    "sssp_on_edges",
    "batched_sssp",
]
