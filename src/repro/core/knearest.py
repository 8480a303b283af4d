"""Fast computation of the k-nearest nodes (Section 5, Lemmas 5.1–5.3).

The paper computes, for every node ``u``, the ``h``-hop distances to its
``k`` nearest nodes ``N^h_k(u)`` in O(1) rounds whenever ``k in O(n^{1/h})``
(Lemma 5.1), then iterates ``i`` times to reach ``h^i``-hop distances in
O(i) rounds (Lemma 5.2).  Combined with a ``k``-nearest ``h^i``-hopset this
yields exact distances to ``N_k(u)`` (Lemma 3.3).

Executable content:

* the *output* of each round is the filtered power ``filter_k(Ā^h)``
  (Lemmas 5.4/5.5): :func:`knearest_one_round` and
  :func:`knearest_iterated` build it densely with
  :func:`repro.semiring.minplus.filtered_hop_power`, ``O(h·n²·k)`` work
  per round — the definition, kept for the tests and the message-level
  protocol;
* where Lemma 5.2's output is the exact k nearest, the solvers compute it
  by growing each row's ball from a graph's CSR (:func:`_grow_balls`),
  with the same round charges and no ``(n, n)`` array:
  :func:`knearest_exact` on ``G`` for Theorem 1.1's first stage
  (positive weights, ``h^i >= k``) and :func:`knearest_exact_via_hopset`
  on ``G ∪ H`` for Lemma 3.3 (the β-hopset makes the ``h^i``-hop answer
  exact);
* the *communication structure* — bins, h-combinations, and their counting
  claims (``h * C(p, h) <= n``, bin assignments, the set ``S`` of queried
  nodes) — is implemented in :class:`BinPlan` and validated in tests;
* the *round cost* is charged per Lemma 5.3: two Lemma 2.2 routings per
  iteration, after validating ``k in O(n^{1/h})``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..cclique.accounting import RoundLedger
from ..cclique.errors import LoadPreconditionError
from ..graphs.adjacency import CSRAdjacency
from ..graphs.graph import WeightedGraph
from ..semiring.minplus import (
    INF,
    RowSparse,
    _k_smallest_of_candidates,
    filtered_hop_power,
    k_smallest_in_rows,
    memory_budget_from_env,
)
from . import params


@dataclass
class BinPlan:
    """The bin / h-combination bookkeeping of Section 5.2.

    The global edge list ``M`` (all nodes' k-edge lists concatenated in ID
    order) is split into ``p = floor(n^{1/h} * h / 4)`` contiguous bins; each
    way of choosing ``h`` distinct bins with a distinguished first bin is an
    *h-combination*, assigned to a distinct node.  The plan records the
    arithmetic and exposes the counting facts the correctness proof uses.
    """

    n: int
    k: int
    h: int
    p: int
    bin_size: int
    combination_count: int
    trivial: bool

    @property
    def feasible(self) -> bool:
        """Both standing assumptions of Section 5.2 hold."""
        return not self.trivial

    def assignments(self, limit: Optional[int] = None) -> List[Tuple[int, ...]]:
        """Enumerate h-combinations as tuples ``(first, *rest)``.

        ``rest`` is an unordered set (sorted here); the first bin is
        distinguished.  ``limit`` truncates the enumeration *lazily* —
        only the requested prefix is ever materialised (tests only need
        prefixes for large instances, where the full ``h * C(p, h)`` list
        is huge).  Full enumerations are memoised per ``(p, h)``, shared
        across the equal-parameter plans each pipeline level rebuilds.
        """
        if limit is not None:
            return list(islice(_iter_assignments(self.p, self.h), max(0, limit)))
        return list(_full_assignments(self.p, self.h))

    def bin_of_global_index(self, index: int) -> int:
        """Bin containing position ``index`` of the global list ``M``."""
        if not 0 <= index < self.n * self.k:
            raise ValueError("global index out of range")
        return min(self.p - 1, index // self.bin_size)

    def bins_touching_node(self, u: int) -> List[int]:
        """Bins containing entries of node ``u``'s local list ``M(u)``.

        Since a bin is much larger than a local list, at most two bins
        intersect ``M(u)`` (used in Lemma 5.3's bound ``|S| <= 2n/p``).
        """
        first = self.bin_of_global_index(u * self.k)
        last = self.bin_of_global_index((u + 1) * self.k - 1)
        return list(range(first, last + 1))


def _iter_assignments(p: int, h: int) -> Iterator[Tuple[int, ...]]:
    """Lazily yield the Section 5.2 h-combinations ``(first, *rest)``.

    ``others`` is ascending, so ``combinations`` emits each ``rest``
    already sorted — the historical per-tuple ``sorted`` call was a no-op.
    """
    for first in range(p):
        others = [b for b in range(p) if b != first]
        yield from ((first, *rest) for rest in combinations(others, h - 1))


@lru_cache(maxsize=32)
def _full_assignments(p: int, h: int) -> Tuple[Tuple[int, ...], ...]:
    """The complete enumeration, memoised per ``(p, h)``."""
    return tuple(_iter_assignments(p, h))


def make_bin_plan(n: int, k: int, h: int) -> BinPlan:
    """Compute the Section 5.2 parameters, flagging the trivial regimes.

    The trivial regimes (``p < h`` or bin size <= k) imply ``k in O(1)`` and
    the problem is solved by direct broadcast (the paper's "Assumptions"
    paragraph); callers fall back accordingly.
    """
    if n < 1 or k < 1 or h < 1:
        raise ValueError("need n, k, h >= 1")
    p = int(math.floor(n ** (1.0 / h) * h / 4.0))
    if p < h or p <= 0:
        return BinPlan(n, k, h, max(p, 0), 0, 0, trivial=True)
    bin_size = -(-n * k // p)  # ceil
    if bin_size <= k:
        return BinPlan(n, k, h, p, bin_size, 0, trivial=True)
    count = h * math.comb(p, h)
    return BinPlan(n, k, h, p, bin_size, count, trivial=False)


@dataclass
class KNearestResult:
    """Distances to the k nearest nodes (per the relevant hop bound)."""

    indices: np.ndarray  # (n, k) node ids, -1 padding
    values: np.ndarray  # (n, k) distances, inf padding
    k: int
    h: int
    iterations: int


def _charge_one_iteration(ledger: RoundLedger, n: int, k: int, h: int, plan: BinPlan) -> None:
    """Charge the O(1) rounds of one Lemma 5.1 execution.

    Step 3 (learning bins): each node receives h bins of O(n/h) edges =
    O(n) words.  Step 4 (queries): |S| * k <= 2 (n/p) k in O(n) words.
    Both are Lemma 2.2 routings; the loads are validated explicitly.
    """
    if plan.trivial:
        # k in O(1): all nodes broadcast their k edges directly.
        ledger.charge_broadcast(3 * n * k, detail="k-nearest trivial broadcast")
        return
    bin_messages = plan.bin_size * h
    ledger.charge_redundancy_routing(
        max_received_per_node=bin_messages,
        detail=f"bin contents (h={h} bins of {plan.bin_size} edges)",
    )
    s_size = max(1, 2 * n // plan.p + 1)
    ledger.charge_redundancy_routing(
        max_received_per_node=s_size * k,
        detail=f"k-nearest query responses (|S|<={s_size}, k={k})",
    )


def knearest_one_round(
    matrix: np.ndarray,
    k: int,
    h: int,
    ledger: Optional[RoundLedger] = None,
    validate: bool = True,
) -> KNearestResult:
    """Lemma 5.1: h-hop distances to ``N^h_k(u)`` for every ``u``, O(1) rounds.

    ``matrix`` is a min-plus adjacency matrix with zero diagonal (weights of
    ``G`` or of ``G ∪ H``).  The result rows are the k smallest entries of
    ``A^h`` per row, obtained via the filtered power ``Ā^h`` (Lemma 5.5
    guarantees they coincide; tests verify it).
    """
    matrix = _checked_input(matrix, k, h, validate)
    return _filtered_rounds(matrix, k, h, 1, ledger)


def _checked_input(
    matrix: np.ndarray, k: int, h: int, validate: bool = True
) -> np.ndarray:
    """The square float matrix, after the Lemma 5.1 load precondition."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    if validate:
        _check_load(n, k, h)
    return matrix


def _check_load(n: int, k: int, h: int) -> None:
    """Lemma 5.1's load precondition ``k in O(n^{1/h})``."""
    if not params.knearest_feasible(n, k, h):
        raise LoadPreconditionError(
            f"k = {k} exceeds O(n^(1/h)) = "
            f"{params.KNEAREST_LOAD_CONSTANT} * {n ** (1.0 / h):.2f} "
            f"for h = {h} (Lemma 5.1 precondition)"
        )


def knearest_iterated(
    matrix: np.ndarray,
    k: int,
    h: int,
    iterations: int,
    ledger: Optional[RoundLedger] = None,
) -> KNearestResult:
    """Lemma 5.2: ``h^i``-hop distances to ``N^{h^i}_k(u)`` in O(i) rounds.

    Iterates Lemma 5.1: the filtered output of round ``j`` (a matrix with k
    finite entries per row, plus its zero diagonal) is the input of round
    ``j + 1``.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    matrix = _checked_input(matrix, k, h)
    return _filtered_rounds(matrix, k, h, iterations, ledger)


def _filtered_rounds(
    matrix: np.ndarray,
    k: int,
    h: int,
    iterations: int,
    ledger: Optional[RoundLedger],
) -> KNearestResult:
    """``iterations`` Lemma 5.1 executions, each charged to ``ledger``.

    Every round builds the dense filtered power ``Ā^h`` with
    :func:`filtered_hop_power`, keeps its k smallest entries per row with
    :func:`k_smallest_in_rows` and re-densifies those rows, with a zero
    diagonal, as the next round's input.
    """
    n = matrix.shape[0]
    plan = make_bin_plan(n, k, h)
    current = matrix
    for _ in range(iterations):
        if ledger is not None:
            _charge_one_iteration(ledger, n, k, h, plan)
        indices, values = k_smallest_in_rows(filtered_hop_power(current, h, k), k)
        current = RowSparse(indices=indices, values=values, n_cols=n).to_dense()
        np.fill_diagonal(current, 0.0)
    return KNearestResult(
        indices=indices, values=values, k=k, h=h, iterations=iterations
    )


class KNearestInexact(ValueError):
    """Lemma 5.2's output need not be the exact k nearest for these inputs.

    Raised by :func:`knearest_exact` when ``h^i < k``, and by it and
    :func:`knearest_exact_via_hopset` when an edge weight is not positive:
    the ``h^i``-hop k nearest may then differ from the exact ones, so
    growing exact balls would not reproduce Lemma 5.2's output.
    """


#: Bytes of temporaries one :func:`_grow_rows` call holds at its peak,
#: per candidate offer and per re-selected old entry: the block's flat
#: candidate arrays and the merge's packed keys, about a dozen eight-byte
#: arrays of that length at once.  Measured with ``tracemalloc`` on
#: Theorem 1.1 inputs at n = 2048, 4096 and 8192, the ratio stays at
#: 42-133 on blocks of 10k entries or more (median 94-99).
_BYTES_PER_OFFER = 136

#: Entries one merge block takes at most, whatever the budget.  Larger
#: blocks cost more than they save: their megabyte-sized temporaries
#: make glibc's allocator hand memory back to the kernel and fault it
#: in again.  On a 2-vCPU x86-64 host, an n = 2048 ball growth under
#: the 32 MiB budget alone (blocks of about 200k entries) took 28k page
#: faults and about twice the time; capped at 2^17 entries it still
#: took 8k, at 2^16 none.
_BLOCK_ENTRIES = 1 << 16


def knearest_exact(
    graph: WeightedGraph,
    k: int,
    h: int,
    iterations: int,
    ledger: Optional[RoundLedger] = None,
) -> KNearestResult:
    """Lemma 5.2's output on ``graph`` where it is exact (Theorem 1.1's
    first stage), grown from the CSR by :func:`_grow_balls`.

    With positive weights, the k nearest nodes of ``u`` in ``(distance,
    ID)`` order are closed under shortest-path predecessors: a node on a
    shortest path to ``v`` lies strictly closer than ``v``, so it precedes
    ``v`` whatever the IDs.  A shortest path to a k-nearest node thus has
    fewer than ``k`` hops, and when ``h^i >= k`` the ``h^i``-hop rows of
    :func:`knearest_iterated` are the exact k nearest.

    Raises :class:`LoadPreconditionError` as :func:`knearest_iterated`
    does, and :class:`KNearestInexact` when ``h^iterations < k`` or an
    edge weight is not positive.
    """
    if k < 1 or h < 1 or iterations < 1:
        raise ValueError("need k, h, iterations >= 1")
    _check_load(graph.n, k, h)
    if h**iterations < k:
        raise KNearestInexact(
            f"h^i = {h}^{iterations} < k = {k}: the h^i-hop k nearest need "
            f"not be exact"
        )
    return _grow_balls(graph, k, h, iterations, ledger)


def knearest_exact_via_hopset(
    augmented: WeightedGraph,
    k: int,
    h: int,
    beta: int,
    ledger: Optional[RoundLedger] = None,
) -> KNearestResult:
    """Lemma 3.3: exact distances to ``N_k(u)`` given a k-nearest beta-hopset.

    ``augmented`` is ``G ∪ H``.  The iteration count is the smallest ``i``
    with ``h^i >= beta``; the hopset guarantees an exact-length path of at
    most ``beta`` hops to every k-nearest node, so the ``h^i``-hop
    distances are the true distances on those pairs, and Lemma 5.2's
    output is the exact k nearest even when ``h^i < k``.
    :func:`_grow_balls` computes it from ``G ∪ H``'s CSR.

    Raises :class:`LoadPreconditionError` when ``k`` breaks Lemma 5.1's
    load bound, and :class:`KNearestInexact` when a weight of ``G ∪ H``
    is not positive.
    """
    i = params.knearest_iterations(beta, h)
    _check_load(augmented.n, k, h)
    return _grow_balls(augmented, k, h, i, ledger)


def _grow_balls(
    graph: WeightedGraph,
    k: int,
    h: int,
    iterations: int,
    ledger: Optional[RoundLedger],
) -> KNearestResult:
    """The exact k nearest of every node of ``graph``, by ball growth.

    With positive weights, each row grows its own ball edge by edge: a
    per-source Dijkstra stopped after k settled nodes, run for all
    sources at once in rounds.

    Every row starts at ``[(0, u)]``.  An entry is *pending* from the
    round it enters or is lowered until it is expanded, into
    ``T[u][y] + w(y, v)`` over the first ``k - 1`` entries of ``y``'s
    CSR row, its lightest edges in ``(weight, ID)`` order.  No other edge
    lies on a shortest path to a k-nearest ``v``: ``y`` and ``k - 1``
    lighter neighbours would all precede ``v`` (Lemma 5.5's filter), so
    a step costs at most ``k - 1`` candidates whatever the degree.  Each
    round, every row expands its ``max(4, k // 6)`` smallest pending
    entries: the smallest are the likeliest to be final, so fewer
    expansions are redone after a lowering (DESIGN.md §7 measures this
    against expanding every pending entry).
    A candidate is dropped unless it precedes the row's current k-th
    ``(value, ID)`` entry: a row only improves, so nothing at or after
    that entry can enter, and a pending entry pushed out of its row needs
    no expansion.  The rows with survivors keep their k smallest
    ``(value, ID)`` pairs of old entries and candidates, merged by
    :func:`_k_smallest_of_candidates` on one packed int64 key.  The loop
    stops when nothing is pending.  Candidates are generated and merged
    in row blocks (:func:`_row_blocks`): under the
    :func:`memory_budget_from_env` budget, under :data:`_BLOCK_ENTRIES`
    entries, and narrow enough for the merge key; no ``(n, n)`` array is
    built.

    The ledger is charged what :func:`knearest_iterated` charges,
    ``iterations`` Lemma 5.1 executions: the local computation differs,
    the communication does not.  Raises :class:`KNearestInexact` when an
    edge weight is not positive.
    """
    n = graph.n
    if graph.num_edges and graph.edge_w.min() <= 0:
        raise KNearestInexact(
            "edge weights must be positive: with zero weights the k nearest "
            "are not closed under shortest-path predecessors"
        )
    if ledger is not None:
        plan = make_bin_plan(n, k, h)
        for _ in range(iterations):
            _charge_one_iteration(ledger, n, k, h, plan)
    csr = graph.csr()
    # Lemma 5.5's filter: a node's first k - 1 CSR entries are all it needs.
    degree = np.minimum(csr.degrees, k - 1)
    per_round = max(4, k // 6)
    budget = memory_budget_from_env()
    indices = np.full((n, k), -1, dtype=np.int64)
    values = np.full((n, k), INF)
    indices[:, 0] = np.arange(n)
    values[:, 0] = 0.0
    pending = np.zeros((n, k), dtype=bool)
    pending[:, 0] = True
    active = np.arange(n)
    while active.size:
        waiting = pending[active]
        expand = waiting & (np.cumsum(waiting, axis=1) <= per_round)
        waiting &= ~expand
        offers = np.where(expand, degree[indices[active]], 0).sum(axis=1)
        pending = np.zeros_like(pending)
        for block in _row_blocks(offers, k, n, budget):
            _grow_rows(
                csr, degree, indices, values, pending,
                active[block], expand[block], waiting[block],
            )
        active = np.flatnonzero(pending.any(axis=1))
    return KNearestResult(
        indices=indices, values=values, k=k, h=h, iterations=iterations
    )


def _row_blocks(
    offers: np.ndarray, k: int, n: int, budget: int
) -> Iterator[slice]:
    """Split one :func:`_grow_balls` round's rows into merge blocks.

    ``offers[j]`` is row ``j``'s candidate count this round; with its
    ``k`` old entries, a row brings ``offers[j] + k`` entries to the
    merge.  A block takes rows in order while its entries stay within
    ``budget`` bytes at :data:`_BYTES_PER_OFFER` each and within
    :data:`_BLOCK_ENTRIES`, and while the merge key fits:
    ``bits(rows) + bits(n) + bits(entries) + 1 <= 63``.  A block holds
    at least one row.
    """
    entries = np.cumsum(offers + k)
    cap = min(budget // _BYTES_PER_OFFER, _BLOCK_ENTRIES)
    room = 62 - int(n).bit_length()
    start = 0
    while start < entries.size:
        base = int(entries[start - 1]) if start else 0

        def width(stop: int) -> int:
            rows, taken = stop - start, int(entries[stop - 1]) - base
            return rows.bit_length() + taken.bit_length()

        stop = max(start + 1, int(np.searchsorted(entries, base + cap, "right")))
        if width(stop) > room:
            fits = bisect_right(range(start + 1, stop + 1), room, key=width)
            stop = start + max(1, fits)
        yield slice(start, stop)
        start = stop


def _grow_rows(
    csr: CSRAdjacency,
    degree: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    pending: np.ndarray,
    rows: np.ndarray,
    expand: np.ndarray,
    waiting: np.ndarray,
) -> None:
    """One :func:`_grow_balls` round on ``rows``, in place.

    ``expand`` and ``waiting`` mark, per row of ``rows``, the pending
    entries expanded now and those left for later; ``pending`` receives
    the rows' entries that are pending after the round.  A node is
    expanded into the first ``degree[y]`` entries of its CSR row.

    Only the rows a candidate survives into (*touched*) are merged, each
    with all its old entries.  An expanded or settled old entry holds
    its own value, so the merge flags it pending again only where a
    candidate lowers it; a waiting entry and a new candidate hold
    nothing and stay pending wherever they land.
    """
    n, k = indices.shape
    owner, slot = np.divmod(np.flatnonzero(expand), k)
    source = rows[owner]
    via = indices[source, slot]
    deg = degree[via]
    step = np.repeat(np.arange(via.size), deg)  # the expanded entry of each offer
    pos = np.arange(step.size) + (csr.indptr[via] - (np.cumsum(deg) - deg))[step]
    owner = owner[step]
    col = csr.indices[pos]
    cand = values[source, slot][step] + csr.weights[pos]
    kth_val = values[rows, k - 1][owner]
    kth_id = indices[rows, k - 1][owner]
    keep = (cand < kth_val) | ((cand == kth_val) & (col < kth_id))
    owner, col, cand = owner[keep], col[keep], cand[keep]
    hit = np.zeros(rows.size, dtype=bool)
    hit[owner] = True
    pending[rows[~hit]] = waiting[~hit]
    if not hit.any():
        return
    touched = rows[hit]
    old_idx, old_val = indices[touched], values[touched]
    old_wait = waiting[hit]
    if old_idx[:, -1].min() >= 0:  # every touched row is full
        at = np.repeat(np.arange(touched.size), k)
        old_idx, old_val, old_wait = old_idx.ravel(), old_val.ravel(), old_wait.ravel()
    else:
        at, entry = np.divmod(np.flatnonzero(old_idx >= 0), k)
        old_idx, old_val = old_idx[at, entry], old_val[at, entry]
        old_wait = old_wait[at, entry]
    new_idx, new_val, below = _k_smallest_of_candidates(
        np.concatenate([at, (np.cumsum(hit) - 1)[owner]]),
        np.concatenate([old_idx, col]),
        np.concatenate([old_val, cand]),
        touched.size, n, k,
        np.concatenate([np.where(old_wait, INF, old_val), np.full(cand.size, INF)]),
    )
    assert below is not None
    pending[touched] = below
    indices[touched] = new_idx
    values[touched] = new_val
