"""APSP approximation with large bandwidth (Section 8.2, Theorem 8.1).

Pipeline for general graphs in ``Congested-Clique[log^4 n]``:

1. bootstrap an ``O(log n)``-approximation (Corollary 7.2) and build a
   sqrt(n)-nearest beta-hopset (Lemma 3.2);
2. apply the weight scaling lemma (Lemma 8.1) to ``G ∪ H`` with
   ``h = beta``, producing O(log n) small-diameter graphs ``G_i``;
3. run the Theorem 7.1 solver on every needed ``G_i`` *in parallel*
   (the extra bandwidth pays for the parallelism) and assemble ``eta``;
4. take ``~N_k(u)`` = the sqrt(n) nodes with smallest ``eta(u, .)``,
   verify-by-construction conditions (C1)/(C2), build the full-version
   skeleton (Lemma 6.1) with ``a = 7(1+eps)``, broadcast it entirely, and
   solve exactly (``l = 1``), giving a ``7^3 (1+eps)^2``-approximation.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

import numpy as np

from ..cclique.accounting import RoundLedger
from ..graphs.distances import exact_apsp
from ..graphs.graph import WeightedGraph
from ..graphs.validation import symmetrize_min_inplace
from ..semiring.minplus import k_smallest_in_rows
from ..spanners.logn_approx import logn_bootstrap
from . import params
from .factor_reduction import _phase
from .hopsets import build_knearest_hopset
from .results import Estimate
from .skeleton import build_skeleton, extend_estimate
from .small_diameter import apsp_small_diameter, exact_fallback
from .weight_scaling import assemble_eta, build_scaled_graph, clip_estimate, plan_scaling

#: Ledger phase timing Lemma 8.1's zero-round local work.
WEIGHT_SCALING_PHASE = "thm8.1/weight-scaling"

#: Signature of the solver run on each scaled graph: (graph, rng, ledger).
InnerSolver = Callable[[WeightedGraph, np.random.Generator, Optional[RoundLedger]], Estimate]


def _default_inner_solver(
    graph: WeightedGraph,
    rng: np.random.Generator,
    ledger: Optional[RoundLedger],
) -> Estimate:
    """Theorem 7.1 in its Congested-Clique[log^3 n] variant (7-approx)."""
    return apsp_small_diameter(graph, rng, ledger=ledger, mode="cc3")


def scaled_bandwidth_words(n: int) -> int:
    """Words per message for the per-``G_i`` runs (``log^3 n`` bits each)."""
    return max(1, int(math.ceil(math.log2(max(2, n)) ** 2)))


def apsp_large_bandwidth(
    graph: WeightedGraph,
    rng: np.random.Generator,
    ledger: Optional[RoundLedger] = None,
    eps: float = 0.1,
    inner_solver: Optional[InnerSolver] = None,
    bootstrap_alpha: float = 1.0,
) -> Estimate:
    """Theorem 8.1: ``(7^3 + eps')``-approximate APSP in CC[log^4 n].

    Parameters
    ----------
    graph:
        Weighted undirected graph (any weighted diameter).
    rng, ledger:
        Randomness and round accounting; the per-scale runs use their own
        sub-ledgers merged as a *parallel* composition (max of rounds, sum
        of bandwidths), exactly how the theorem spends its ``log^4 n``
        bandwidth.
    eps:
        Weight-scaling epsilon; the final factor is
        ``7 * ((1 + eps) * l_inner)^2`` with ``l_inner`` the per-scale
        solver's factor (7 asymptotically).
    inner_solver:
        Override for the per-``G_i`` solver (the Theorem 1.2 tradeoff
        plugs the round-limited Lemma 8.2 solver in here).
    """
    if graph.directed:
        raise ValueError("Theorem 8.1 applies to undirected graphs")
    n = graph.n
    if n <= params.exact_small_threshold(n) or graph.num_edges * 3 <= n:
        return exact_fallback(graph, ledger)
    solver = inner_solver or _default_inner_solver

    # Step 1: bootstrap + hopset.
    with _phase(ledger, "thm8.1/bootstrap"):
        boot = logn_bootstrap(graph, rng, ledger=ledger, alpha=bootstrap_alpha)
        delta0 = symmetrize_min_inplace(boot.estimate)
        a0 = boot.factor
        hopset = build_knearest_hopset(graph, delta0, a0, ledger=ledger)
        augmented = hopset.augmented(graph)
    beta = hopset.beta_bound

    # Step 2(a): weight scaling on G ∪ H with h = beta.  delta0 is an
    # a0-approximation and a0 <= beta, so it is also a beta-approximation
    # as the lemma requires.  Lemma 8.1's local work (plan, scaled graphs,
    # clipping, assembly) is timed as one zero-round phase; the per-scale
    # solves stay outside it.
    with _phase(ledger, WEIGHT_SCALING_PHASE):
        plan = plan_scaling(delta0, h=beta, eps=eps)

    # Step 2(b): solve each needed scale (parallel in the model).
    estimates: Dict[int, np.ndarray] = {}
    sub_ledgers = []
    inner_factor = 1.0
    words = scaled_bandwidth_words(n)
    for i in plan.needed:
        with _phase(ledger, WEIGHT_SCALING_PHASE):
            scaled = build_scaled_graph(augmented, i, plan)
        sub_ledger = RoundLedger(n, bandwidth_words=words) if ledger is not None else None
        result = solver(scaled, rng, sub_ledger)
        with _phase(ledger, WEIGHT_SCALING_PHASE):
            estimates[i] = clip_estimate(result.estimate, plan)
        inner_factor = max(inner_factor, result.factor)
        if sub_ledger is not None:
            sub_ledgers.append(sub_ledger)
    if ledger is not None and sub_ledgers:
        with _phase(ledger, "thm8.1/scaled-solves"):
            ledger.merge_parallel(sub_ledgers, prefix="G_i")

    # Step 2(b) continued: assemble eta (zero rounds).  Pairs disconnected
    # in G stay inf: the scaled graphs' diameter caps make every pair look
    # connected, but eta must never underestimate (d = inf there).
    with _phase(ledger, WEIGHT_SCALING_PHASE):
        eta = assemble_eta(estimates, plan)
        eta[~np.isfinite(delta0)] = np.inf
        np.fill_diagonal(eta, 0.0)
        symmetrize_min_inplace(eta)
    a_eta = (1.0 + eps) * inner_factor

    # Step 3: skeleton from the approximate sqrt(n)-nearest sets.
    k = max(1, math.isqrt(n))
    nbr_indices, nbr_values = k_smallest_in_rows(eta, k)
    with _phase(ledger, "thm8.1/skeleton"):
        skeleton = build_skeleton(
            augmented, nbr_indices, nbr_values, k, rng, a=a_eta, ledger=ledger
        )
        if ledger is not None:
            ledger.charge_broadcast(
                3 * skeleton.graph.num_edges,
                detail="broadcast full skeleton [Thm 8.1 final step]",
            )
        exact_gs = exact_apsp(skeleton.graph)
        final, factor = extend_estimate(skeleton, exact_gs, 1.0, ledger)

    return Estimate(
        estimate=final,
        factor=factor,
        meta={
            "bootstrap_factor": a0,
            "hopset_beta": beta,
            "scales": plan.needed,
            "scale_cap": plan.cap,
            "inner_factor": inner_factor,
            "eta_factor": a_eta,
            "skeleton_nodes": skeleton.num_nodes,
            "bandwidth_words_per_scale": words,
        },
    )
