"""Top-level APSP approximation (Theorem 1.1) and the public entry point.

Theorem 1.1 lifts Theorem 8.1 from ``Congested-Clique[log^4 n]`` to the
standard model:

1. compute exact distances to the ``k = log^4 n`` nearest nodes on ``G``
   itself (Lemma 5.2 — a shortest path to a k-nearest node has at most
   ``k`` hops, so no hopset is required; the output is computed by the
   equivalent exact ball growth :func:`knearest_exact`);
2. build a skeleton graph ``G_S`` with ``O(n / log^3 n)`` nodes
   (Lemma 3.4);
3. simulate the Theorem 8.1 algorithm on ``G_S``: because ``G_S`` is a
   ``log^3 n``-fold smaller clique, Lemma 2.1 routes each of its
   big-bandwidth rounds in O(1) standard rounds;
4. extend the result back to ``G`` (factor ``7 * (7^3 + eps) = 7^4 + eps'``).

:func:`approximate_apsp` is the library's main convenience API: it accepts
any nonnegative-integer-weighted graph (zero weights handled by the
Theorem 2.1 reduction), picks the requested variant, and returns the
estimate, the guaranteed factor, and the round ledger.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..cclique.accounting import RoundLedger
from ..graphs.graph import WeightedGraph
from . import params
from .factor_reduction import _phase
from .knearest import knearest_exact
from .large_bandwidth import apsp_large_bandwidth
from .results import Estimate
from .skeleton import build_skeleton, extend_estimate
from .small_diameter import apsp_round_limited, exact_fallback


def simulation_bandwidth_words(n: int, skeleton_nodes: int) -> int:
    """Bandwidth (words) a skeleton-clique simulation gets for free.

    A clique on ``N`` nodes simulated inside a clique on ``n`` nodes can
    exchange ``O(n / N)`` words per simulated link per round while keeping
    every (real) node's load at O(n) messages (Lemma 2.1).  Asymptotically
    ``n / N = log^3 n`` for Theorem 1.1's skeleton, which covers the
    ``log^4 n``-bit messages the inner algorithm wants; at laptop scale the
    measured ratio is smaller and we grant exactly what is affordable.
    """
    if skeleton_nodes < 1:
        return 1
    return max(1, n // skeleton_nodes)


def apsp_theorem11(
    graph: WeightedGraph,
    rng: np.random.Generator,
    ledger: Optional[RoundLedger] = None,
    eps: float = 0.1,
    tradeoff_t: Optional[int] = None,
) -> Estimate:
    """Theorem 1.1 (or Theorem 1.2 when ``tradeoff_t`` is given).

    Parameters
    ----------
    graph:
        Weighted undirected graph with positive integer weights.
    rng, ledger:
        Randomness and round accounting (standard-model ledger).
    eps:
        The epsilon of the final ``7^4 + eps`` guarantee (propagated to the
        weight-scaling step of the inner Theorem 8.1 run).
    tradeoff_t:
        When set, the inner per-scale solver is the round-limited
        Lemma 8.2 with parameter ``t + 1`` (Lemma 8.3), yielding the
        Theorem 1.2 tradeoff instead of the fixed constant factor.

    Running over a faulted fabric is :func:`approximate_apsp`'s job: it
    disseminates the graph first and dispatches on what survived.
    """
    if graph.directed:
        raise ValueError("Theorem 1.1 applies to undirected graphs")
    n = graph.n
    if n <= params.exact_small_threshold(n) or graph.num_edges * 3 <= n:
        return exact_fallback(graph, ledger)

    # Step 1: exact k0-nearest distances on G itself.
    k0 = params.theorem11_k0(n)
    h0, i0 = params.choose_hop_schedule(n, k0)
    with _phase(ledger, "thm1.1/k-nearest"):
        knn = knearest_exact(graph, k0, h0, i0, ledger=ledger)

    # Step 2: skeleton reduction.
    with _phase(ledger, "thm1.1/skeleton"):
        skeleton = build_skeleton(
            graph, knn.indices, knn.values, k0, rng, a=1.0, ledger=ledger
        )

    # Step 3: Theorem 8.1 on the skeleton graph, simulated with the
    # bandwidth the size reduction affords.
    inner_n = skeleton.graph.n
    words = simulation_bandwidth_words(n, inner_n)
    sub_ledger = (
        RoundLedger(max(2, inner_n), bandwidth_words=words)
        if ledger is not None
        else None
    )
    if tradeoff_t is None:
        inner = apsp_large_bandwidth(
            skeleton.graph, rng, ledger=sub_ledger, eps=eps
        )
    else:
        t_inner = tradeoff_t + 1

        def limited_solver(
            g: WeightedGraph,
            solver_rng: np.random.Generator,
            solver_ledger: Optional[RoundLedger],
        ) -> Estimate:
            # Lemma 8.3: the per-scale solver is the round-limited Lemma 8.2
            # in the CC[log^3 n] (exact-skeleton) variant.
            return apsp_round_limited(
                g, t_inner, solver_rng, ledger=solver_ledger, mode="cc3"
            )

        inner = apsp_large_bandwidth(
            skeleton.graph,
            rng,
            ledger=sub_ledger,
            eps=eps,
            inner_solver=limited_solver,
        )
    if ledger is not None and sub_ledger is not None:
        # Each simulated round of the skeleton clique is O(1) standard
        # rounds by Lemma 2.1; fold the sub-ledger in at face value.
        ledger.merge(sub_ledger, prefix="thm1.1/simulated-G_S")

    # Step 4: extend back to G.
    with _phase(ledger, "thm1.1/extend"):
        final, factor = extend_estimate(skeleton, inner.estimate, inner.factor, ledger)
    meta = {
        "k0": k0,
        "hop_schedule": (h0, i0),
        "skeleton_nodes": skeleton.num_nodes,
        "inner": inner.meta,
        "inner_factor": inner.factor,
        "simulation_bandwidth_words": words,
    }
    return Estimate(estimate=final, factor=factor, meta=meta)


def approximate_apsp(
    graph: WeightedGraph,
    rng: Optional[np.random.Generator] = None,
    variant: str = "theorem11",
    t: Optional[int] = None,
    eps: float = 0.1,
    ledger: Optional[RoundLedger] = None,
    faults: Any = None,
    max_retries: int = 0,
    recovery: Optional[str] = None,
    integrity: Any = None,
) -> Estimate:
    """Approximate APSP on a weighted undirected graph — the legacy API.

    This is a thin back-compat wrapper over the variant registry
    (:mod:`repro.core.registry`); prefer :class:`repro.api.ApspSolver` for
    new code — it adds typed configuration, batch execution, timing, and
    JSON-serializable results.

    Parameters
    ----------
    graph:
        Undirected graph with nonnegative integer weights.  Zero weights
        are handled transparently via the Theorem 2.1 reduction.
    rng:
        Randomness source (fresh default generator if omitted — pass one
        for reproducibility).
    variant:
        Any registered variant name (``repro.core.registry.VARIANTS.names()``).
        The built-ins include ``"theorem11"`` (the headline Theorem 1.1
        O(1)-approximation), ``"small-diameter"`` (Theorem 7.1),
        ``"tradeoff"`` (Theorem 1.2, requires ``t``), ``"exact"``,
        ``"uy90"``, ``"spanner-only"``, and ``"large-bandwidth"``
        (Theorem 8.1).
    t:
        Tradeoff parameter (required iff ``variant="tradeoff"``).
    eps:
        Approximation slack for the constant-factor variants.
    ledger:
        Optional round ledger; created automatically when omitted and
        attached to the result's ``meta["ledger"]``.
    faults, max_retries, recovery, integrity:
        A chaos configuration: when ``faults`` is set the graph is
        first disseminated over the faulted clique fabric (see
        :mod:`repro.protocols.dissemination`) and the chosen variant
        runs on the surviving subgraph.  The dissemination outcome is
        attached to the result's ``meta["dissemination"]``.
    """
    from .registry import run_variant

    dissemination_meta = None
    if faults is not None:
        from ..protocols.dissemination import disseminate_graph

        shipped = disseminate_graph(
            graph, faults=faults, max_retries=max_retries,
            recovery=recovery, integrity=integrity,
        )
        graph = shipped.graph
        dissemination_meta = shipped.describe()
    result = run_variant(variant, graph, rng=rng, ledger=ledger, t=t, eps=eps)
    if dissemination_meta is not None:
        result.meta["dissemination"] = dissemination_meta
    return result
