"""k-nearest beta-hopsets (Section 4, Lemma 3.2).

Given an ``a``-approximation ``delta`` of APSP, the O(1)-round algorithm of
Section 4.1 builds a hopset ``H`` such that in ``G ∪ H`` every node reaches
each of its ``sqrt(n)``-nearest nodes by a path of at most
``beta in O(a log d)`` hops *of exact length* (Lemma 4.2):

1. each node ``v`` takes its *approximate* sqrt(n)-nearest set
   ``~N(v)`` — the sqrt(n) nodes with smallest ``delta(v, .)``, ID ties;
2. every ``u in ~N(v)`` ships ``v`` its sqrt(n) shortest outgoing edges;
3. ``v`` runs a local shortest-path computation on the received edges plus
   its own outgoing edges;
4. ``v`` adds hopset edges ``(v, u)`` weighted by the locally computed
   distances.

Communication: each node receives ``sqrt(n) * sqrt(n) = n`` edge words, so
Lemma 2.2 routes everything in O(1) rounds — the ledger charge validates
that load for the actual ``k`` used.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cclique.accounting import RoundLedger
from ..graphs.adjacency import batched_sssp, k_lightest_per_row
from ..graphs.graph import WeightedGraph
from ..graphs.validation import symmetrize_min_inplace
from ..semiring.minplus import k_smallest_in_rows
from . import params


@dataclass
class HopsetResult:
    """A hopset plus the parameters that certify its hop bound."""

    hopset: WeightedGraph
    k: int
    a: float
    diameter_bound: float
    beta_bound: int
    local_distances_computed: int

    def augmented(self, graph: WeightedGraph) -> WeightedGraph:
        """The graph ``G ∪ H`` the downstream lemmas operate on."""
        return graph.union(self.hopset)


def _local_dijkstra(
    adjacency: Dict[int, List[Tuple[int, float]]],
    source: int,
) -> Dict[int, float]:
    """Dijkstra on the tiny local subgraph a node assembled (Step 3).

    Kept as the per-node reference implementation (tests cross-validate
    the batched scipy path against it); the construction itself uses
    :func:`_batched_local_distances`.
    """
    dist: Dict[int, float] = {source: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, math.inf):
            continue
        for neighbour, weight in adjacency.get(node, ()):
            candidate = d + weight
            if candidate < dist.get(neighbour, math.inf):
                dist[neighbour] = candidate
                heapq.heappush(heap, (candidate, neighbour))
    return dist


def _batched_local_distances(
    graph: WeightedGraph,
    nearest_indices: np.ndarray,
    k: int,
    chunk_nodes: Optional[int] = None,
) -> np.ndarray:
    """Step 3 for every node at once: ``out[v]`` = distances on v's local
    subgraph (the k shortest out-edges of each ``u ∈ ~N_k(v)`` plus v's
    own outgoing edges).

    Each node's local computation is an independent block of one
    block-diagonal :func:`~repro.graphs.adjacency.batched_sssp` call;
    sources are chunked so the dense dijkstra output stays a few MB.
    Semantically identical to running :func:`_local_dijkstra` per node on
    the historical dict-of-lists assembly.
    """
    n = graph.n
    csr = graph.csr()
    se_idx, se_w = k_lightest_per_row(csr, k)
    se_valid = se_idx >= 0
    out = np.empty((n, n), dtype=np.float64)
    if chunk_nodes is None:
        # The block-diagonal dijkstra scans c * (c * n) dense output per
        # chunk (c * n^2 over the whole run), so small chunks win; 8-16
        # amortises the per-call scipy overhead without inflating the scan.
        chunk_nodes = 8 if n >= 256 else 16
    for lo in range(0, n, chunk_nodes):
        chunk = np.arange(lo, min(n, lo + chunk_nodes), dtype=np.int64)
        c = len(chunk)
        # Member short-edge records: block b ships u -> se_idx[u] for every
        # u in ~N_k(chunk[b]).  The block source v itself is skipped: its
        # short list is a prefix of its full row (same weights), so the
        # local subgraph is unchanged and no (block, src, dst) duplicates
        # remain — scipy's COO constructor may then be fed directly.
        members = nearest_indices[chunk]  # (c, k_members)
        member_ok = (members >= 0) & (members != chunk[:, None])
        blk = np.broadcast_to(np.arange(c, dtype=np.int64)[:, None], members.shape)
        m_blk = blk[member_ok]
        m_src = members[member_ok]
        e_ok = se_valid[m_src]  # (M, k)
        src = np.repeat(m_src, k)[e_ok.ravel()]
        dst = se_idx[m_src][e_ok]
        wgt = se_w[m_src][e_ok]
        bid = np.repeat(m_blk, k)[e_ok.ravel()]
        # Own outgoing edges of each chunk node (the full row).
        own_src, own_dst, own_w = csr.rows_of(chunk)
        own_bid = own_src - lo
        out[chunk] = batched_sssp(
            n,
            np.concatenate([src, own_src]),
            np.concatenate([dst, own_dst]),
            np.concatenate([wgt, own_w]),
            np.concatenate([bid, own_bid]),
            chunk,
            dedup=False,
        )
    return out


def build_knearest_hopset(
    graph: WeightedGraph,
    delta: np.ndarray,
    a: float,
    k: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
) -> HopsetResult:
    """Lemma 3.2: deterministically build a ``k``-nearest beta-hopset.

    Parameters
    ----------
    graph:
        The input graph ``G`` (directed or undirected).
    delta:
        An ``(n, n)`` a-approximation of APSP on ``G``
        (``d <= delta <= a d``).  Entries may be ``inf`` for unreachable
        pairs.
    a:
        The approximation factor ``delta`` is guaranteed to satisfy.
    k:
        Neighbourhood size; defaults to ``ceil(sqrt(n))`` as in the paper.
        The O(1)-round load argument needs ``k^2 in O(n)``.
    ledger:
        Round ledger; charges one request round plus one Lemma 2.2 routing
        with the measured receive load, plus the round informing hopset
        edge endpoints.

    Returns
    -------
    HopsetResult
        The hopset ``H`` (same directedness as ``G``); its
        :attr:`~HopsetResult.beta_bound` is the explicit Lemma 4.2 bound
        ``2 (ceil(a ln d) + 1) + 1`` evaluated with the *estimated*
        diameter ``max finite delta`` (an upper bound on ``d``).
    """
    n = graph.n
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (n, n):
        raise ValueError("delta must be an (n, n) matrix")
    if a < 1:
        raise ValueError("a must be >= 1")
    if k is None:
        k = max(1, math.isqrt(n - 1) + 1) if n > 1 else 1
    k = int(min(k, n))

    # Step 1: approximate k-nearest sets from delta (value then ID order).
    nearest_indices, _ = k_smallest_in_rows(delta, k)

    # Step 2 communication accounting: v requests from each u in ~N(v) its k
    # shortest outgoing edges; each edge is ~3 words.  The receive load per
    # node is exactly k * k edges.
    if ledger is not None:
        ledger.charge_all_to_all(detail="hopset edge requests")
        ledger.charge_redundancy_routing(
            max_received_per_node=k * k,
            detail=f"hopset edge shipping (k={k}, {k * k} edges per node)",
        )

    # Step 3, batched: every node's local shortest-path computation is one
    # block of a block-diagonal dijkstra (Lemma 3.2's "local computation
    # on the received edges", array-native).
    local_dist = _batched_local_distances(graph, nearest_indices, k)
    reached = np.isfinite(local_dist)
    local_count = int(reached.sum())
    np.fill_diagonal(reached, False)
    if not graph.directed:
        # Fold both orientations onto u < v, keeping the lighter one: the
        # edges come out canonical, so building the graph needs no sort.
        symmetrize_min_inplace(local_dist)
        reached = np.triu(np.isfinite(local_dist), k=1)
    hop_src, hop_dst = np.nonzero(reached)
    hop_w = local_dist[hop_src, hop_dst]

    finite = delta[np.isfinite(delta)]
    diameter_bound = float(finite.max(initial=2.0))
    beta = params.hopset_beta_bound(a, diameter_bound)

    if ledger is not None:
        # Step 4: v informs u of the new edge (one round; each node is the
        # source and target of at most n messages).
        ledger.charge_lenzen_routing(
            max_sent_per_node=n,
            max_received_per_node=n,
            detail="hopset edge endpoint notification",
        )

    hopset = WeightedGraph.from_arrays(
        n,
        hop_src,
        hop_dst,
        hop_w,
        directed=graph.directed,
        require_positive=False,
        require_integer=False,
    )
    return HopsetResult(
        hopset=hopset,
        k=k,
        a=float(a),
        diameter_bound=diameter_bound,
        beta_bound=beta,
        local_distances_computed=local_count,
    )
