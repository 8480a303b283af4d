"""The weight scaling lemma (Section 8.1, Lemma 8.1).

Reduces distance approximation on ``G`` (for pairs joined by shortest paths
of at most ``h`` hops) to approximation on ``O(log n)`` graphs ``G_i`` of
weighted diameter at most ``ceil(2/eps) * h^2``:

* ``H_i``: round every weight up to the next multiple of ``x = 2^i``;
* ``K_i``: add an edge of weight ``x * B * h^2`` between *every* pair
  (``B = ceil(2/eps)``), keeping minima;
* ``G_i``: divide all weights by ``x``.

The construction and the final assembly of ``eta`` are zero communication
rounds — everything is local arithmetic on known values, exactly as the
lemma states.

**Representation note** (see DESIGN.md): the complete-graph edges of
``K_i`` only matter through the diameter cap, because any path using such
an edge has length at least the cap.  We therefore materialize ``G_i`` as
the sparse rounded graph and *clip* distance estimates at the cap:
``min(est_sparse, cap)`` equals a valid estimate on the true ``G_i``
(tests verify the equivalence against an explicit ``K_i``).

The sparse ``G_i`` is one elementwise ``min(ceil(w / x), cap)`` over the
canonical edge arrays of the input graph.  Rounding up keeps every
``(u, v)`` record, so the arrays stay canonical and the graph constructor
takes its no-sort path: building ``G_i`` is O(m) array work, with no
per-edge Python loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..graphs.graph import WeightedGraph


@dataclass
class ScalingPlan:
    """Everything Lemma 8.1 precomputes locally.

    Attributes
    ----------
    h:
        Hop bound of the pairs the reduction covers (the hopset's beta in
        the Theorem 8.1 application).
    eps:
        Target relative rounding error.
    cap:
        The weighted diameter bound ``B * h^2`` of every ``G_i`` (after
        division by ``x``).
    index:
        ``(n, n)`` int array: the scale ``i`` chosen for each pair from the
        coarse estimate ``delta`` (Section 8.1's selection rule).
    needed:
        Sorted list of distinct scale indices actually used.
    """

    h: int
    eps: float
    B: int
    cap: float
    index: np.ndarray
    needed: List[int]


def plan_scaling(delta: np.ndarray, h: int, eps: float) -> ScalingPlan:
    """Choose the scale index per pair (zero rounds; pure local arithmetic).

    Rule from the lemma: if ``delta(u, v) >= (B/2) h^2`` pick the unique
    ``i >= 1`` with ``2^{i-1} B h^2 <= delta(u, v) < 2^i B h^2``; otherwise
    ``i = 0``.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    delta = np.asarray(delta, dtype=np.float64)
    B = math.ceil(2.0 / eps)
    threshold = 0.5 * B * h * h
    index = np.zeros(delta.shape, dtype=np.int64)
    big = np.isfinite(delta) & (delta >= threshold)
    # i = floor(log2(delta / (B h^2))) + 1 on the "big" pairs; the ratio is
    # at least 1/2 there, so i >= 0 (i = 0 covers delta in [B h^2/2, B h^2)).
    ratio = delta[big] / (B * h * h)
    index[big] = np.floor(np.log2(ratio)).astype(np.int64) + 1
    # Unreachable pairs get the largest needed scale (their eta stays inf
    # or capped; the guarantee only covers h-hop-connected pairs).
    if np.any(~np.isfinite(delta)):
        fallback = int(index.max(initial=0))
        index[~np.isfinite(delta)] = fallback
    needed = sorted(int(i) for i in np.unique(index))
    return ScalingPlan(
        h=h,
        eps=eps,
        B=B,
        cap=float(B * h * h),
        index=index,
        needed=needed,
    )


def build_scaled_graph(
    graph: WeightedGraph,
    i: int,
    plan: ScalingPlan,
    materialize_clique: bool = False,
) -> WeightedGraph:
    """Construct ``G_i`` (sparse representation; see module note).

    With ``materialize_clique=True`` the complete-graph cap edges of
    ``K_i`` are added explicitly — used by tests to verify that the sparse
    representation plus clipping is exact; quadratic, so only for small n.
    """
    if i < 0:
        raise ValueError("scale index must be >= 0")
    u, v = graph.edge_u, graph.edge_v
    w = np.minimum(np.ceil(graph.edge_w / float(2**i)), plan.cap)
    if materialize_clique:
        # Every pair u < v gets a cap edge; the dedup keeps the minimum
        # against the rounded edges already present.
        clique_u, clique_v = np.triu_indices(graph.n, k=1)
        u = np.concatenate([u, clique_u])
        v = np.concatenate([v, clique_v])
        w = np.concatenate([w, np.full(len(clique_u), plan.cap)])
    return WeightedGraph.from_arrays(
        graph.n,
        u,
        v,
        w,
        directed=graph.directed,
        require_positive=False,
        require_integer=False,
    )


def clip_estimate(estimate: np.ndarray, plan: ScalingPlan) -> np.ndarray:
    """Clip a sparse-``G_i`` estimate at the diameter cap.

    ``min(est, cap)`` is exactly a valid estimate for the true ``G_i``
    (with the clique edges): ``d_{G_i} = min(d_sparse, cap)``, and clipping
    preserves both the lower bound and the stretch factor.
    """
    out = np.minimum(np.asarray(estimate, dtype=np.float64), plan.cap)
    np.fill_diagonal(out, 0.0)
    return out


def assemble_eta(
    estimates: Dict[int, np.ndarray],
    plan: ScalingPlan,
) -> np.ndarray:
    """Combine per-scale estimates into ``eta`` (zero rounds).

    ``eta(u, v) = 2^i * delta_{G_i}(u, v)`` with ``i = plan.index[u, v]``.
    Every scale in ``plan.needed`` must be present in ``estimates``.
    """
    missing = [i for i in plan.needed if i not in estimates]
    if missing:
        raise ValueError(f"missing estimates for scale indices {missing}")
    n = plan.index.shape[0]
    eta = np.full((n, n), np.inf)
    for i in plan.needed:
        mask = plan.index == i
        eta[mask] = (2.0**i) * np.asarray(estimates[i])[mask]
    np.fill_diagonal(eta, 0.0)
    return eta


def verify_scaling_guarantees(
    exact: np.ndarray,
    eta: np.ndarray,
    hop_ok_mask: np.ndarray,
    l_factor: float,
    eps: float,
    rtol: float = 1e-9,
) -> bool:
    """Check the two Lemma 8.1 conclusions against ground truth.

    * ``eta >= d`` everywhere;
    * ``eta <= (1 + eps) l d`` on pairs with an h-hop shortest path
      (``hop_ok_mask``).
    """
    exact = np.asarray(exact)
    eta = np.asarray(eta)
    off_diag = ~np.eye(exact.shape[0], dtype=bool)
    finite = np.isfinite(exact) & off_diag
    if np.any(eta[finite] < exact[finite] * (1 - rtol)):
        return False
    covered = finite & hop_ok_mask
    bound = (1.0 + eps) * l_factor * exact[covered]
    return bool(np.all(eta[covered] <= bound * (1 + rtol)))
