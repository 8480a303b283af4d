"""Approximation factor reduction (Lemma 3.1).

One application turns an ``a``-approximation of APSP into a
``15 sqrt(a)``-approximation in O(1) rounds, provided
``log d in a^{O(1)}``:

1. build a sqrt(n)-nearest ``O(a log d)``-hopset from the given estimate
   (Lemma 3.2);
2. compute exact distances to the ``k = n^{1/h}`` nearest nodes with
   ``h = a^{1/4} / 2`` (Lemma 3.3);
3. build a skeleton graph on ``O(n log k / k)`` nodes (Lemma 3.4);
4. approximate APSP on the skeleton with a ``b = sqrt(a)`` spanner
   broadcast (Corollary 7.1) — or exactly, when the skeleton is small
   enough to broadcast outright — and extend back to ``G``.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..cclique.accounting import RoundLedger
from ..graphs.distances import exact_apsp
from ..graphs.graph import WeightedGraph
from ..spanners.logn_approx import approx_apsp_via_spanner
from . import params
from .hopsets import build_knearest_hopset
from .knearest import knearest_exact_via_hopset
from .results import Estimate
from .skeleton import build_skeleton, extend_estimate


def solve_skeleton_apsp(
    skeleton_graph: WeightedGraph,
    clique_n: int,
    b: int,
    rng: np.random.Generator,
    ledger: Optional[RoundLedger] = None,
    eps: float = 1.0 / 14.0,
    exact_if_small: bool = True,
) -> Estimate:
    """Approximate (or exactly solve) APSP on a skeleton graph.

    Implements the last step of Lemma 3.1: a ``(1+eps)(2b-1)``-spanner of
    ``G_S`` is broadcast and solved locally (Corollary 7.1).  When the
    skeleton is small enough that *all* its edges fit in an O(1)-round
    broadcast — the paper's remark after Lemma 3.4 — the exact distances
    are computed instead (``l = 1``).
    """
    size = skeleton_graph.n
    if exact_if_small and (
        size <= params.exact_small_threshold(clique_n)
        or skeleton_graph.num_edges <= clique_n
    ):
        if ledger is not None:
            ledger.charge_broadcast(
                3 * skeleton_graph.num_edges,
                detail=f"broadcast full skeleton ({skeleton_graph.num_edges} edges)",
            )
        return Estimate(estimate=exact_apsp(skeleton_graph), factor=1.0)
    result = approx_apsp_via_spanner(skeleton_graph, b, rng, ledger=ledger, eps=eps)
    return Estimate(estimate=result.estimate, factor=result.factor)


def reduce_approximation(
    graph: WeightedGraph,
    delta: np.ndarray,
    a: float,
    rng: np.random.Generator,
    ledger: Optional[RoundLedger] = None,
    eps: float = 1.0 / 14.0,
    exact_if_small: bool = True,
) -> Estimate:
    """Lemma 3.1: improve an a-approximation to a ``15 sqrt(a)`` one.

    Parameters
    ----------
    graph:
        Weighted undirected graph ``G``.
    delta:
        The current a-approximation (symmetric, ``d <= delta <= a d``).
    a:
        Its guaranteed factor.
    rng, ledger:
        Randomness and round accounting.
    eps:
        Spanner epsilon; the paper picks ``1/14`` so that
        ``7 (1 + eps)(2 sqrt(a) - 1) < 15 sqrt(a)``.
    exact_if_small:
        Solve tiny skeletons exactly instead of via a spanner.

    Returns
    -------
    Estimate
        The new estimate; ``factor`` is the *actual* chained guarantee
        ``7 * l`` (with ``l`` the skeleton solver's factor), which is at
        most the lemma's ``15 sqrt(a)``.
    """
    if graph.directed:
        raise ValueError("Lemma 3.1 applies to undirected graphs")
    n = graph.n
    plan = params.plan_reduction(n, a, _diameter_estimate(delta))

    with _phase(ledger, "lemma3.1"):
        hopset = build_knearest_hopset(graph, delta, a, ledger=ledger)
        augmented = hopset.augmented(graph)
        knn = knearest_exact_via_hopset(
            augmented,
            plan.k,
            plan.h,
            hopset.beta_bound,
            ledger=ledger,
        )
        skeleton = build_skeleton(
            augmented,
            knn.indices,
            knn.values,
            plan.k,
            rng,
            a=1.0,
            ledger=ledger,
        )
        inner = solve_skeleton_apsp(
            skeleton.graph,
            clique_n=n,
            b=plan.b,
            rng=rng,
            ledger=ledger,
            eps=eps,
            exact_if_small=exact_if_small,
        )
        eta, factor = extend_estimate(skeleton, inner.estimate, inner.factor, ledger)
    # Combine with the input estimate (zero rounds, local): both are valid
    # upper bounds on distances, so the pointwise minimum satisfies the
    # smaller of the two factors.  This makes the lemma's 15 sqrt(a)
    # promise hold for *every* a >= 1, including the small-a regime where
    # the b >= 2 clamp would otherwise leave the chained factor slightly
    # above it (the pipelines never reduce there, but direct callers may).
    eta = np.minimum(eta, np.asarray(delta, dtype=np.float64))
    factor = min(factor, float(a))
    return Estimate(
        estimate=eta,
        factor=factor,
        meta={
            "plan": plan,
            "promised_factor": plan.promised_factor,
            "skeleton_nodes": skeleton.num_nodes,
            "skeleton_edges": skeleton.graph.num_edges,
            "hopset_beta": hopset.beta_bound,
            "inner_factor": inner.factor,
        },
    )


def _diameter_estimate(delta: np.ndarray) -> float:
    """Upper bound on the weighted diameter from an overestimate matrix."""
    finite = delta[np.isfinite(delta)]
    return float(finite.max(initial=2.0))


class _NullContext:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *args: Any) -> None:
        return None


def _phase(ledger: Optional[RoundLedger], name: str) -> Any:
    """Ledger phase context that tolerates ``ledger is None``."""
    if ledger is None:
        return _NullContext()
    return ledger.phase(name)
