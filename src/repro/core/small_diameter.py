"""APSP approximation for small weighted diameter graphs (Theorem 7.1).

The Theorem 7.1 pipeline:

1. bootstrap an ``O(log n)``-approximation (Corollary 7.2);
2. repeatedly apply the factor reduction of Lemma 3.1 while it improves
   the guarantee (``O(log log log n)`` applications asymptotically);
3. final stage: sqrt(n)-nearest hopset -> exact sqrt(n)-nearest distances
   (``h = 2``, ``i in O(log log log n)``) -> skeleton with ``k = sqrt(n)``
   -> 3-spanner broadcast (standard model, 21-approximation) or full
   skeleton broadcast (``Congested-Clique[log^3 n]``, 7-approximation).

Also provides the round-limited variant of Lemma 8.2 that stops after ``t``
reductions (the engine of the Theorem 1.2 tradeoff).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..cclique.accounting import RoundLedger
from ..graphs.distances import exact_apsp
from ..graphs.graph import WeightedGraph
from ..graphs.validation import symmetrize_min_inplace
from ..spanners.logn_approx import logn_bootstrap
from . import params
from .factor_reduction import (
    _phase,
    reduce_approximation,
    solve_skeleton_apsp,
)
from .hopsets import build_knearest_hopset
from .knearest import knearest_exact_via_hopset
from .results import Estimate
from .skeleton import build_skeleton, extend_estimate


def exact_fallback(
    graph: WeightedGraph,
    ledger: Optional[RoundLedger] = None,
) -> Estimate:
    """Solve a small instance exactly by broadcasting all edges.

    Used whenever a (sub)problem is small enough that its entire edge set
    fits in an O(1)-round broadcast — the brute-force case the paper
    routinely delegates to ("otherwise, the problem can be solved by brute
    force in O(1) rounds").
    """
    if ledger is not None:
        ledger.charge_broadcast(
            3 * graph.num_edges, detail="broadcast full graph (brute force)"
        )
    return Estimate(estimate=exact_apsp(graph), factor=1.0, meta={"exact": True})


def _reduction_would_improve(a: float, eps: float) -> bool:
    """Whether one more Lemma 3.1 application tightens the guarantee.

    The chained factor after a reduction is ``7 (1+eps)(2 sqrt(a) - 1)``;
    iterating past the fixed point only wastes rounds (this is the paper's
    stopping condition "until a in O(log log n)" made concrete).
    """
    b = params.reduction_b(a)
    candidate = 7.0 * (1.0 + eps) * (2 * b - 1)
    return candidate < a


def apsp_small_diameter(
    graph: WeightedGraph,
    rng: np.random.Generator,
    ledger: Optional[RoundLedger] = None,
    mode: str = "cc",
    max_reductions: Optional[int] = None,
    final_stage: bool = True,
    bootstrap_alpha: float = 1.0,
    eps: float = 1.0 / 14.0,
) -> Estimate:
    """Theorem 7.1 (and Lemma 8.2 when round-limited).

    Parameters
    ----------
    graph:
        Weighted undirected graph, ideally of small weighted diameter (the
        algorithm is correct regardless; the *round* guarantee of the
        theorem assumes ``d in (log n)^{O(1)}``).
    rng, ledger:
        Randomness and round accounting.  For the
        ``Congested-Clique[log^3 n]`` variant (7-approximation) pass a
        ledger created with ``bandwidth_words ~ log^2 n`` and
        ``mode="cc3"``.
    mode:
        ``"cc"`` — final skeleton solved via a 3-spanner (21-approx path);
        ``"cc3"`` — final skeleton broadcast in full and solved exactly
        (7-approx path, intended for the larger-bandwidth model).
    max_reductions:
        Cap on Lemma 3.1 applications (Lemma 8.2's ``t``); ``None`` means
        "while it improves the guarantee".
    final_stage:
        When False, stop after the reductions (the Lemma 8.2 behaviour for
        small ``t``: only the first part of the algorithm runs).
    """
    if mode not in ("cc", "cc3"):
        raise ValueError("mode must be 'cc' or 'cc3'")
    if graph.directed:
        raise ValueError("Theorem 7.1 applies to undirected graphs")
    n = graph.n
    if n <= params.exact_small_threshold(n) or graph.num_edges * 3 <= n:
        return exact_fallback(graph, ledger)

    reductions_done = 0
    with _phase(ledger, "thm7.1/bootstrap"):
        boot = logn_bootstrap(graph, rng, ledger=ledger, alpha=bootstrap_alpha)
    delta = symmetrize_min_inplace(boot.estimate)
    a = boot.factor

    history = [("bootstrap", a)]
    while _reduction_would_improve(a, eps) and (
        max_reductions is None or reductions_done < max_reductions
    ):
        step = reduce_approximation(
            graph, delta, a, rng, ledger=ledger, eps=eps
        )
        delta, a = step.estimate, step.factor
        reductions_done += 1
        history.append((f"reduction {reductions_done}", a))

    if not final_stage:
        return Estimate(
            estimate=delta,
            factor=a,
            meta={"history": history, "reductions": reductions_done},
        )

    with _phase(ledger, "thm7.1/final"):
        hopset = build_knearest_hopset(graph, delta, a, ledger=ledger)
        augmented = hopset.augmented(graph)
        k = max(1, math.isqrt(n))
        knn = knearest_exact_via_hopset(
            augmented, k, 2, hopset.beta_bound, ledger=ledger
        )
        skeleton = build_skeleton(
            augmented, knn.indices, knn.values, k, rng, a=1.0, ledger=ledger
        )
        if mode == "cc":
            inner = solve_skeleton_apsp(
                skeleton.graph,
                clique_n=n,
                b=2,  # 3-spanner, the paper's 21-approximation path
                rng=rng,
                ledger=ledger,
                eps=0.0,
            )
        else:
            if ledger is not None:
                ledger.charge_broadcast(
                    3 * skeleton.graph.num_edges,
                    detail="broadcast full skeleton [CC(log^3 n) variant]",
                )
            inner = Estimate(estimate=exact_apsp(skeleton.graph), factor=1.0)
        eta, factor = extend_estimate(skeleton, inner.estimate, inner.factor, ledger)

    history.append(("final", factor))
    return Estimate(
        estimate=eta,
        factor=factor,
        meta={
            "history": history,
            "reductions": reductions_done,
            "skeleton_nodes": skeleton.num_nodes,
            "hopset_beta": hopset.beta_bound,
            "mode": mode,
        },
    )


def apsp_round_limited(
    graph: WeightedGraph,
    t: int,
    rng: np.random.Generator,
    ledger: Optional[RoundLedger] = None,
    mode: str = "cc",
    bootstrap_alpha: float = 1.0,
    eps: float = 1.0 / 14.0,
) -> Estimate:
    """Lemma 8.2: ``O(log^{2^{-t}} n)``-approximation in O(t) rounds.

    For ``t`` large enough that the target factor is ``O(log log n)``, this
    is Theorem 7.1 unchanged (in the requested ``mode``); otherwise only
    the bootstrap plus at most ``t`` factor reductions run.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    n = graph.n
    # "t >= log log log n" regime: run the full algorithm.
    lll = math.log2(max(2.0, math.log2(max(2.0, math.log2(max(2, n))))))
    if t >= max(1.0, lll):
        result = apsp_small_diameter(
            graph,
            rng,
            ledger=ledger,
            mode=mode,
            max_reductions=t,
            bootstrap_alpha=bootstrap_alpha,
            eps=eps,
        )
    else:
        result = apsp_small_diameter(
            graph,
            rng,
            ledger=ledger,
            mode=mode,
            max_reductions=t,
            final_stage=False,
            bootstrap_alpha=bootstrap_alpha,
            eps=eps,
        )
    bound = tradeoff_factor_bound(n, t)
    result.meta["tradeoff_bound"] = bound
    result.meta["t"] = t
    return result


def tradeoff_factor_bound(n: int, t: int, constant: float = 15.0) -> float:
    """The Theorem 1.2 bound ``O(log^{2^{-t}} n)`` with an explicit constant.

    One bootstrap gives ``log2 n``; each reduction maps ``a`` to
    ``15 sqrt(a)``, whose ``t``-fold iterate from ``log n`` is at most
    ``15^2 * (log2 n)^{2^{-t}}`` (the constant absorbs the fixed point of
    ``a -> 15 sqrt(a)``, which is ``225``).
    """
    if n < 2 or t < 0:
        return float("inf")
    return constant**2 * math.log2(n) ** (2.0**-t)
