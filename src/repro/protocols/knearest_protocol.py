"""Message-level k-nearest protocols (Section 5), staged as array batches.

Two executable schedules:

* :func:`run_knearest_broadcast_protocol` — the trivial regime of
  Section 5.2 (``k ∈ O(1)``): every node broadcasts its k shortest
  outgoing edges with the Section 2.3 two-round trick, then computes the
  filtered h-hop distances locally with
  :func:`repro.core.knearest.knearest_one_round` on the received edges;
  tests assert the output equals that function on the original graph.

* :func:`run_bin_exchange` — the non-trivial regime's *communication
  pattern*: the global edge list is split into bins, h-combinations are
  assigned to nodes, and the bin contents are routed so that the assigned
  node of every combination holds exactly its bins (Step 3 of the
  algorithm).  The function returns the per-node received edge sets plus
  the measured routing rounds, and the tests verify the coverage claim of
  Lemma 5.4: every h-edge path of the filtered graph is fully contained
  in the bins of some h-combination.

Both schedules build their whole message sets as flat numpy columns (one
row per message) and push them through the array plane in one staging
call, so the protocols validate at n three orders of magnitude beyond the
old per-``Message`` loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..cclique.engine import ArrayClique, MessageBatch
from ..cclique.routing import RoutingStats, route_batch_two_phase
from ..core.knearest import (
    BinPlan,
    KNearestResult,
    knearest_one_round,
    make_bin_plan,
)
from ..graphs.graph import WeightedGraph


@dataclass
class BroadcastKNearestResult:
    """Outcome of the trivial-regime protocol."""

    result: KNearestResult
    rounds: int


def _filtered_edge_columns(
    graph: WeightedGraph, k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat ``(source, endpoint, weight)`` columns of every node's k-list."""
    sources: List[int] = []
    endpoints: List[int] = []
    weights: List[float] = []
    for u in range(graph.n):
        for endpoint, weight in graph.k_shortest_out_edges(u, k):
            sources.append(u)
            endpoints.append(int(endpoint))
            weights.append(float(weight))
    return (
        np.asarray(sources, dtype=np.int64),
        np.asarray(endpoints, dtype=np.int64),
        np.asarray(weights, dtype=np.float64),
    )


def run_knearest_broadcast_protocol(
    graph: WeightedGraph,
    k: int,
    h: int,
    *,
    faults=None,
    integrity=None,
) -> BroadcastKNearestResult:
    """The ``k ∈ O(1)`` fallback: broadcast everyone's k-edge list.

    Every node publishes its k shortest outgoing edges; each edge is one
    3-word message to each other node, all ``n·k·(n-1)`` of them staged as
    a single flat batch (the engine spills them across ``k`` rounds, one
    edge per ordered pair per round, exactly like the historical
    schedule).  Each node then computes the filtered h-hop distances
    locally — the same local computation the bin-combination nodes perform
    in the general regime.
    """
    n = graph.n
    clique = ArrayClique(n, bandwidth_words=3, strict=False)
    if faults is not None:
        clique.attach_faults(faults)
    if integrity is not None:
        clique.attach_integrity(integrity)
    e_src, e_end, e_w = _filtered_edge_columns(graph, k)

    # One row per (edge, target != source).
    m = len(e_src)
    src = np.repeat(e_src, n)
    dst = np.tile(np.arange(n, dtype=np.int64), m)
    keep = src != dst
    payload = np.column_stack([e_src, e_end, e_w])
    clique.stage(
        src[keep],
        dst[keep],
        np.repeat(payload, n, axis=0)[keep],
        tag="knn:edge",
    )
    rounds = clique.drain()

    # Every node now holds the full filtered edge set; reconstruct it once
    # (all nodes hold identical copies) and compute the filtered power.
    matrix = np.full((n, n), np.inf)
    np.fill_diagonal(matrix, 0.0)
    _, view = clique.collect()
    if len(view):
        # Delivered payloads are untrusted under faults: a corrupted
        # endpoint must not scatter out of the matrix.
        a_f, b_f = view.payload[:, 0], view.payload[:, 1]
        ok = np.isfinite(a_f) & np.isfinite(b_f)
        a_i = np.where(ok, a_f, 0).astype(np.int64)
        b_i = np.where(ok, b_f, 0).astype(np.int64)
        ok &= (a_f == a_i) & (a_i >= 0) & (a_i < n)
        ok &= (b_f == b_i) & (b_i >= 0) & (b_i < n)
        np.minimum.at(matrix, (a_i[ok], b_i[ok]), view.payload[ok, 2])
    # own edges (a node obviously knows its own list without messages)
    np.minimum.at(matrix, (e_src, e_end), e_w)
    # The trivial regime sits outside Lemma 5.1's load precondition.
    result = knearest_one_round(matrix, k, h, validate=False)
    return BroadcastKNearestResult(result=result, rounds=rounds)


@dataclass
class BinExchangeResult:
    """Outcome of the Step 2/3 bin distribution."""

    plan: BinPlan
    assignments: List[Tuple[int, ...]]
    received: Dict[int, List[Tuple[int, int, float]]]
    stats: RoutingStats


def global_edge_list(graph: WeightedGraph, k: int) -> List[Tuple[int, int, float]]:
    """The ordered list ``M = M(0) ◦ M(1) ◦ ... ◦ M(n-1)`` of Section 5.2.

    Each node contributes exactly ``k`` entries; nodes with fewer than
    ``k`` outgoing edges pad with self-loop sentinels of infinite weight,
    keeping every local list the same length (the algorithm's positional
    arithmetic depends on it).
    """
    entries: List[Tuple[int, int, float]] = []
    for u in range(graph.n):
        local = graph.k_shortest_out_edges(u, k)
        for endpoint, weight in local:
            entries.append((u, int(endpoint), float(weight)))
        for _ in range(k - len(local)):
            entries.append((u, u, math.inf))
    return entries


def run_bin_exchange(
    graph: WeightedGraph,
    k: int,
    h: int,
    *,
    faults=None,
    max_retries: int = 0,
    recovery=None,
    integrity=None,
) -> BinExchangeResult:
    """Distribute bins to h-combination owners (Steps 2-3 of Section 5.2).

    Every h-combination is assigned to a distinct node (the paper proves
    ``h·C(p,h) <= n``); the owner of combination ``j`` receives all edges
    in each of its bins, shipped through the two-phase router as one flat
    batch.  Returns who received what, so correctness properties (bin
    coverage, load bounds) can be asserted at the message level.
    """
    n = graph.n
    plan = make_bin_plan(n, k, h)
    if plan.trivial:
        raise ValueError(
            "trivial bin plan: use run_knearest_broadcast_protocol instead"
        )
    edges = global_edge_list(graph, k)
    assignments = plan.assignments()
    if len(assignments) > n:  # pragma: no cover - excluded by the counting claim
        raise RuntimeError("more combinations than nodes")

    edge_cols = np.asarray(edges, dtype=np.float64)  # (n*k, 3)
    position_chunks: List[np.ndarray] = []
    owner_chunks: List[np.ndarray] = []
    bin_chunks: List[np.ndarray] = []
    for owner, combination in enumerate(assignments):
        for bin_index in combination:
            start = bin_index * plan.bin_size
            stop = min(len(edges), start + plan.bin_size)
            positions = np.arange(start, stop, dtype=np.int64)
            position_chunks.append(positions)
            owner_chunks.append(np.full(len(positions), owner, dtype=np.int64))
            bin_chunks.append(np.full(len(positions), bin_index, dtype=np.int64))
    positions = np.concatenate(position_chunks)
    owners = np.concatenate(owner_chunks)
    bins = np.concatenate(bin_chunks)
    finite = np.isfinite(edge_cols[positions, 2])  # skip padding sentinels
    positions, owners, bins = positions[finite], owners[finite], bins[finite]

    batch = MessageBatch(
        src=edge_cols[positions, 0].astype(np.int64),
        dst=owners,
        payload=np.column_stack([edge_cols[positions], bins.astype(np.float64)]),
        tag="bins",
    )
    # payload is 4 words + 1 relay word: still O(log n) bits per message.
    delivered, stats = route_batch_two_phase(
        batch, n, bandwidth_words=6, faults=faults,
        max_retries=max_retries, recovery=recovery, integrity=integrity,
    )
    received: Dict[int, List[Tuple[int, int, float]]] = {}
    for owner in range(len(assignments)):
        _, payload = delivered.for_node(owner)
        received[owner] = [
            (int(row[0]), int(row[1]), float(row[2])) for row in payload
        ]
    return BinExchangeResult(
        plan=plan, assignments=assignments, received=received, stats=stats
    )
