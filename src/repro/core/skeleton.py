"""Skeleton graphs (Section 6, Lemmas 3.4 and 6.1–6.4).

Given (possibly approximate) distances from every node to its k-nearest
set, the skeleton construction reduces APSP on ``G`` to APSP on a graph
``G_S`` with ``O(n log k / k)`` nodes, losing a factor ``7 l a^2``:

1. **Hitting set** ``S`` (Lemma 6.2): sample each node with probability
   ``ln k / k``, O(log n) parallel repetitions, plus the deterministic
   fix-up that adds every node whose ``~N_k`` set was missed.
2. **Centers**: ``c(u)`` is the skeleton node nearest to ``u`` under the
   given estimate ``delta`` (ties by ID).
3. **Skeleton edges**: for every triplet ``(u, v, t)`` with ``t ∈ ~N_k(u)``
   and (``{t, v} ∈ E`` or ``t = v``), an edge ``c(u) -- c(v)`` of weight
   ``delta(c(u), u) + delta(u, t) + w_tv + delta(v, c(v))``, realised as
   the min-plus product ``X ⊗ Y`` of the ``x``/``y`` operands.  Both are
   built as entry triples — ``x`` has at most ``k`` entries per node,
   ``y`` one per edge orientation plus ``t = v`` — and the product runs
   as a join on ``t`` (:func:`~repro.semiring.sparse.sparse_minplus_join`)
   unless the exact candidate count, weighed by
   :data:`JOIN_CANDIDATE_COST`, exceeds the ``|S|^2 n`` dense operations
   of the dense product (``G ∪ H`` with its hopset edges).  Either way the
   product is bit-identical and priced at the same densities.
4. **Extension** (Lemma 6.3): given an l-approximation on ``G_S``,
   ``eta(u, v) = delta(u, c(u)) + delta_GS(c(u), c(v)) + delta(c(v), v)``
   for pairs outside the known sets, and ``delta(u, v)`` inside.  The
   known estimate is kept as ``O(nk)`` symmetric entry triples and
   scattered over the through-skeleton matrix, and the symmetric minimum
   runs in place, so ``eta`` is the only ``(n, n)`` array the step builds.

The implementation follows the matrix formulation of Section 6.2 exactly,
with the sparse products charged at the measured densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..cclique.accounting import RoundLedger
from ..graphs.adjacency import min_dedup_edges
from ..graphs.graph import WeightedGraph
from ..graphs.validation import symmetrize_min_inplace
from ..semiring.minplus import INF
from ..semiring.sparse import (
    Entries,
    join_candidates,
    sparse_minplus,
    sparse_minplus_join,
)
from . import params

#: Cost of one join candidate (gather, add, scatter-min) in units of one
#: dense min-plus operation; the skeleton product joins when
#: ``JOIN_CANDIDATE_COST * candidates < |S|^2 n``.  Measured on a 2-vCPU
#: x86 host at about 20 ns per candidate against 2 ns per dense operation:
#: theorem11's n=2048 skeleton (0.27M candidates, |S|^2 n = 81M) joins in
#: 0.05 s instead of 0.23 s, while Theorem 8.1's n=1024 ``G ∪ H`` skeleton
#: (7.6M candidates, 18M dense operations) takes 0.08 s dense, 0.20 s joined.
JOIN_CANDIDATE_COST = 10.0


class SkeletonError(ValueError):
    """Invalid inputs to the skeleton construction."""


@dataclass
class Skeleton:
    """The output of the Lemma 6.1 construction.

    Attributes
    ----------
    nodes:
        Skeleton node IDs in ``G`` (sorted).
    graph:
        ``G_S`` re-indexed to ``0 .. |S|-1`` (position in ``nodes``).
    center:
        ``center[u]`` = compact index (into ``nodes``) of ``c(u)``.
    center_delta:
        ``delta(u, c(u))`` per node.
    known:
        The symmetric "local" estimate as ``(u, v, delta)`` entry triples,
        sorted by ``(u, v)``: one entry per ordered off-diagonal pair with
        ``v ∈ ~N_k(u)`` or ``u ∈ ~N_k(v)``, holding the smaller of the two
        supplied estimates.  Pairs without an entry are unknown (inf).
    a:
        The approximation factor the input estimate satisfied.
    k:
        Neighbourhood size used.
    """

    nodes: np.ndarray
    graph: WeightedGraph
    center: np.ndarray
    center_delta: np.ndarray
    known: Entries
    a: float
    k: int
    size_bound: float

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


def build_hitting_set(
    nbr_indices: np.ndarray,
    n: int,
    k: int,
    rng: np.random.Generator,
    repetitions: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
) -> np.ndarray:
    """Lemma 6.2's hitting set: ``S`` intersects every ``~N_k(v)``.

    Runs ``O(log n)`` independent repetitions of (sample with probability
    ``ln k / k``; add every node whose set was missed) and keeps the
    smallest result — exactly the amplification argument in the proof.
    Returns a sorted array of member IDs.
    """
    if nbr_indices.shape[0] != n:
        raise SkeletonError("neighbour table must have one row per node")
    if repetitions is None:
        repetitions = max(1, int(math.ceil(math.log2(max(2, n)))))
    probability = min(1.0, math.log(max(2, k)) / k)
    best: Optional[np.ndarray] = None
    for _ in range(repetitions):
        sampled = rng.random(n) < probability
        member_rows = np.where(nbr_indices >= 0, sampled[nbr_indices], False)
        missed = ~member_rows.any(axis=1)
        sampled = sampled | missed
        if best is None or sampled.sum() < best.sum():
            best = sampled
    assert best is not None
    if ledger is not None:
        ledger.charge_hitting_set()
    return np.flatnonzero(best)


def _x_entries(
    nbr_indices: np.ndarray,
    nbr_values: np.ndarray,
    center: np.ndarray,
    center_delta: np.ndarray,
) -> Entries:
    """``x`` as min-deduplicated ``(c(u), t, delta(c(u), u) + delta(u, t))``."""
    k = nbr_indices.shape[1]
    rows = np.repeat(center, k)
    cols = nbr_indices.ravel()
    vals = (center_delta[:, None] + nbr_values).ravel()
    keep = (cols >= 0) & np.isfinite(vals)
    return min_dedup_edges(rows[keep], cols[keep], vals[keep])


def _y_entries(
    graph: WeightedGraph, center: np.ndarray, center_delta: np.ndarray
) -> Entries:
    """``y`` as raw ``(t, c(v), w_tv + delta(v, c(v)))`` triples.

    One triple per edge orientation plus the ``t = v`` entries; repeated
    ``(t, c(v))`` positions mean their minimum.
    """
    eu, ev, ew = graph.edge_u, graph.edge_v, graph.edge_w
    return (
        np.concatenate([eu, ev, np.arange(graph.n)]),
        np.concatenate([center[ev], center[eu], center]),
        np.concatenate([ew + center_delta[ev], ew + center_delta[eu], center_delta]),
    )


def _densify(entries: Entries, shape: Tuple[int, int]) -> np.ndarray:
    rows, cols, vals = entries
    out = np.full(shape, INF)
    np.minimum.at(out, (rows, cols), vals)
    return out


def skeleton_xy_matrices(
    graph: WeightedGraph,
    nbr_indices: np.ndarray,
    nbr_values: np.ndarray,
    center: np.ndarray,
    center_delta: np.ndarray,
    size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``x`` and ``y`` matrices of Lemma 6.2 (Step 3 of Section 6.1).

    ``x[s_a, t] = min over u with c(u)=s_a, t ∈ ~N_k(u) of
    delta(s_a, u) + delta(u, t)``;
    ``y[t, s_b] = min over v with c(v)=s_b and {t, v} ∈ E of
    w_tv + delta(v, s_b)``, plus the ``t = v`` case (weight 0).

    Exposed publicly so the message-level protocol implementation can be
    cross-validated against exactly this computation.
    """
    n = graph.n
    x = _densify(_x_entries(nbr_indices, nbr_values, center, center_delta), (size, n))
    y = _densify(_y_entries(graph, center, center_delta), (n, size))
    return x, y


def build_skeleton(
    graph: WeightedGraph,
    nbr_indices: np.ndarray,
    nbr_values: np.ndarray,
    k: int,
    rng: np.random.Generator,
    a: float = 1.0,
    ledger: Optional[RoundLedger] = None,
) -> Skeleton:
    """Lemmas 3.4 / 6.1: construct the skeleton graph ``G_S`` in O(1) rounds.

    Parameters
    ----------
    graph:
        The weighted undirected input graph ``G``.
    nbr_indices, nbr_values:
        ``(n, k)`` arrays: ``~N_k(u)`` member IDs (ID/value sorted, -1 pad)
        and the estimates ``delta(u, .)`` on them.  For the simplified
        Lemma 3.4, pass the exact k-nearest output of Lemma 3.3 and
        ``a = 1``.  For the full Lemma 6.1, the caller is responsible for
        conditions (C1)/(C2) — checked in tests via
        :func:`verify_skeleton_conditions`.
    k:
        Neighbourhood size (``nbr_indices.shape[1]``).
    a:
        Approximation factor of the supplied estimates.
    """
    if graph.directed:
        raise SkeletonError("skeleton graphs require an undirected graph")
    n = graph.n
    nbr_indices = np.asarray(nbr_indices)
    nbr_values = np.asarray(nbr_values, dtype=np.float64)
    if nbr_indices.shape != (n, k) or nbr_values.shape != (n, k):
        raise SkeletonError(
            f"neighbour tables must be (n, k) = {(n, k)}; got "
            f"{nbr_indices.shape} and {nbr_values.shape}"
        )
    if not np.issubdtype(nbr_indices.dtype, np.integer):
        raise SkeletonError(
            f"neighbour indices must be integers; got {nbr_indices.dtype}"
        )
    nbr_indices = nbr_indices.astype(np.int64, copy=False)

    # Step 1: hitting set.
    members = build_hitting_set(nbr_indices, n, k, rng, ledger=ledger)
    size = len(members)
    compact = np.full(n, -1, dtype=np.int64)
    compact[members] = np.arange(size)

    # Step 2: centers.  Rows of nbr_* are sorted by (value, ID), so the
    # first member of S in each row is the delta-closest, ID tie-broken.
    in_s = np.zeros(n, dtype=bool)
    in_s[members] = True
    member_mask = np.where(nbr_indices >= 0, in_s[nbr_indices], False)
    if not member_mask.any(axis=1).all():
        raise SkeletonError("hitting set misses some ~N_k(v); fix-up failed")
    first_pos = member_mask.argmax(axis=1)
    center_node = nbr_indices[np.arange(n), first_pos]
    center = compact[center_node]
    center_delta = nbr_values[np.arange(n), first_pos]

    # Step 3: skeleton edge weights X*Y, priced with the analytic
    # density bounds of Lemma 6.2 (rho_X <= k, rho_Y <= |S|,
    # rho_XY <= |S|^2 / n).  Joined on t when the exact candidate count
    # says that is cheaper than the dense product.
    x = _x_entries(nbr_indices, nbr_values, center, center_delta)
    y = _y_entries(graph, center, center_delta)
    pricing = dict(
        ledger=ledger,
        rho_st_bound=max(1.0, size * size / max(1, n)),
        clique_n=n,
        detail="skeleton edge weights X*Y [Lemma 6.2]",
    )
    candidates = join_candidates(x[1], y[0], n)
    if JOIN_CANDIDATE_COST * candidates < size * size * n:
        product = sparse_minplus_join(x, y, (size, n, size), **pricing)
    else:
        product = sparse_minplus(
            _densify(x, (size, n)), _densify(y, (n, size)), **pricing
        )
    weights = symmetrize_min_inplace(product.product)
    np.fill_diagonal(weights, INF)  # self-loops are not edges
    rows, cols = np.nonzero(np.isfinite(weights))
    upper = rows < cols
    rows, cols = rows[upper], cols[upper]
    skeleton_graph = WeightedGraph.from_arrays(
        size if size > 0 else 1,
        rows,
        cols,
        weights[rows, cols],
        require_positive=False,
        require_integer=False,
    )

    # The symmetric "known" estimate used by the extension step: both
    # orientations of every finite off-diagonal table entry, min-merged.
    rows_all = np.repeat(np.arange(n), k)
    cols_all = nbr_indices.ravel()
    vals_all = nbr_values.ravel()
    keep = (cols_all >= 0) & (cols_all != rows_all) & np.isfinite(vals_all)
    rows_all, cols_all, vals_all = rows_all[keep], cols_all[keep], vals_all[keep]
    known = min_dedup_edges(
        np.concatenate([rows_all, cols_all]),
        np.concatenate([cols_all, rows_all]),
        np.concatenate([vals_all, vals_all]),
    )

    return Skeleton(
        nodes=members,
        graph=skeleton_graph,
        center=center,
        center_delta=center_delta,
        known=known,
        a=float(a),
        k=k,
        size_bound=params.skeleton_size_bound(n, k),
    )


def extend_estimate(
    skeleton: Skeleton,
    delta_gs: np.ndarray,
    l_factor: float,
    ledger: Optional[RoundLedger] = None,
) -> Tuple[np.ndarray, float]:
    """Lemma 6.3/6.4: extend an l-approximation on ``G_S`` to ``G``.

    ``delta_gs`` is indexed by compact skeleton indices.  Returns
    ``(eta, factor)`` with ``factor = 7 l a^2`` (Lemma 6.4).  The matrix
    products ``A^T D A`` of Lemma 6.3 have density-1 factors; the two
    sparse products are charged on the ledger.
    """
    size = skeleton.num_nodes
    delta_gs = np.asarray(delta_gs, dtype=np.float64)
    if delta_gs.shape != (size, size):
        raise SkeletonError("delta_gs must be (|S|, |S|)")
    if ledger is not None:
        # B = D A (densities |S|^2/n, 1 -> |S|) and A^T B (1, |S| -> n);
        # both products are O(1) rounds by the [CDKL21] formula.
        n = len(skeleton.center)
        ledger.charge_sparse_matmul(
            max(1.0, size * size / max(1, n)),
            1.0,
            size,
            detail="eta assembly D*A [Lemma 6.3]",
        )
        ledger.charge_sparse_matmul(
            1.0, size, n, detail="eta assembly A^T*B [Lemma 6.3]"
        )
    # Through-skeleton estimate, built in place: same adds, same order
    # as delta(u, c(u)) + delta_GS(c(u), c(v)) + delta(c(v), v).  The
    # column gather is (|S|, n); gathering its rows copies whole
    # contiguous rows, so eta is the only (n, n) array the step builds.
    center, center_delta = skeleton.center, skeleton.center_delta
    eta = delta_gs[:, center][center]
    eta += center_delta[:, None]
    eta += center_delta[None, :]
    known_u, known_v, known_delta = skeleton.known
    eta[known_u, known_v] = known_delta
    np.fill_diagonal(eta, 0.0)
    symmetrize_min_inplace(eta)
    factor = 7.0 * l_factor * skeleton.a**2
    return eta, factor


def verify_skeleton_conditions(
    exact: np.ndarray,
    nbr_indices: np.ndarray,
    nbr_values: np.ndarray,
    a: float,
    rtol: float = 1e-9,
) -> bool:
    """Check conditions (C1) and (C2) of Lemma 6.1 against exact distances.

    (C1): ``d(u, v) <= delta(u, v) <= a d(u, v)`` for ``v ∈ ~N_k(u)``.
    (C2): ``delta(u, v) <= a d(u, t)`` for ``v ∈ ~N_k(u)``, ``t ∉ ~N_k(u)``.
    Used by tests and by the Theorem 8.1 pipeline's self-checks.

    Fully array-native: both conditions are evaluated as masked whole-table
    comparisons (no per-vertex Python loop).
    """
    n = exact.shape[0]
    valid = nbr_indices >= 0
    safe = np.where(valid, nbr_indices, 0)
    rows = np.broadcast_to(np.arange(n)[:, None], nbr_indices.shape)
    dv = exact[rows, safe]
    ev = nbr_values
    # (C1) over every valid (u, v) slot at once.
    low = valid & (ev < dv * (1 - rtol))
    high = valid & (ev > a * dv * (1 + rtol))
    if low.any() or high.any():
        return False
    # (C2): per row, max delta inside ~N_k(u) vs min exact distance outside.
    inside = np.zeros((n, n), dtype=bool)
    inside[rows[valid], safe[valid]] = True
    np.fill_diagonal(inside, True)
    max_inside = np.where(valid, ev, -INF).max(axis=1, initial=-INF)
    min_outside = np.where(inside, INF, exact).min(axis=1, initial=INF)
    applies = valid.any(axis=1) & ~inside.all(axis=1)
    violates = applies & (max_inside > a * min_outside * (1 + rtol))
    return not violates.any()
