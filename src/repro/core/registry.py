"""Variant registry: one catalogue of every APSP algorithm in the repo.

Historically each consumer (``approximate_apsp``, the CLI, the benchmark
harness) kept its own if/elif ladder over the algorithm variants.  The
registry replaces those ladders with a single source of truth: every
algorithm registers itself once via :func:`register_variant` into
:data:`VARIANTS`, carrying the
metadata the consumers need — display name, factor-bound formula, required
and accepted parameters, graph requirements — plus a uniform solver
signature ``solver(graph, rng, ledger, **params) -> Estimate``.

Adding an algorithm is now a one-decorator change: register it here (or in
any imported module) and it appears in ``approximate_apsp``, the
``ApspSolver`` facade (:mod:`repro.api`), ``python -m repro run/frontier``,
the experiment runner, and the benchmark fixtures.

:func:`run_variant` is the shared dispatch path.  It owns the cross-cutting
concerns the old ladders duplicated: default RNG/ledger creation, the
Theorem 2.1 zero-weight lifting, parameter validation, and attaching the
ledger to the result's ``meta`` — so the legacy wrapper and the new facade
produce bit-identical estimates for the same seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..cclique.accounting import RoundLedger
from ..graphs.graph import WeightedGraph
from ..registry import Registry
from .results import Estimate

#: Uniform solver signature: (graph, rng, ledger, **params) -> Estimate.
VariantSolver = Callable[..., Estimate]

#: Declared factor bound: (n, **params) -> float upper bound on the factor
#: the solver may report.  ``None`` marks instance-dependent guarantees
#: (e.g. the O(log n) spanner baseline) that have a formula but no constant.
FactorBound = Optional[Callable[..., float]]


@dataclass(frozen=True)
class VariantSpec:
    """Everything a consumer needs to know about one registered algorithm."""

    name: str
    solver: VariantSolver
    display_name: str
    summary: str
    factor_formula: str
    factor_bound: FactorBound = None
    required_params: Tuple[str, ...] = ()
    accepted_params: Tuple[str, ...] = ()
    default_params: Mapping[str, Any] = field(default_factory=dict)
    requires_undirected: bool = True
    randomized: bool = True
    rounds_note: str = ""

    def bound(self, n: int, **params: Any) -> Optional[float]:
        """Numeric factor bound for an ``n``-node run, if one is declared."""
        if self.factor_bound is None:
            return None
        return float(self.factor_bound(n, **self.resolve_params(**params)))

    def resolve_params(self, **params: Any) -> Dict[str, Any]:
        """Drop irrelevant/None entries and check required parameters.

        Consumers historically pass every knob to every variant (the legacy
        ``approximate_apsp`` forwards ``eps`` and ``t`` unconditionally);
        parameters a variant does not accept are silently dropped so the
        registry path stays a drop-in replacement.  ``default_params`` is
        deliberately *not* applied here: it is metadata for enumerating
        consumers (the CLI frontier, sweeps) which pass it explicitly, so
        direct calls keep the strict contract (``tradeoff`` demands ``t``).
        """
        resolved: Dict[str, Any] = {}
        for key, value in params.items():
            if value is None:
                continue
            if key in self.accepted_params or key in self.required_params:
                resolved[key] = value
        missing = [key for key in self.required_params if key not in resolved]
        if missing:
            raise ValueError(
                f"variant={self.name!r} requires the parameter"
                f"{'s' if len(missing) > 1 else ''} {', '.join(missing)}"
            )
        return resolved

    def check_graph(self, graph: WeightedGraph) -> None:
        """Raise ``ValueError`` when the graph violates a requirement."""
        if self.requires_undirected and graph.directed:
            raise ValueError(
                f"variant={self.name!r} applies to undirected graphs"
            )


#: The variant catalogue, in registration order.
VARIANTS: Registry[VariantSpec] = Registry("variant")


def register_variant(
    name: str,
    *,
    display_name: str,
    summary: str,
    factor_formula: str,
    factor_bound: FactorBound = None,
    required_params: Tuple[str, ...] = (),
    accepted_params: Tuple[str, ...] = (),
    default_params: Optional[Mapping[str, Any]] = None,
    requires_undirected: bool = True,
    randomized: bool = True,
    rounds_note: str = "",
) -> Callable[[VariantSolver], VariantSolver]:
    """Class/function decorator registering one algorithm variant.

    The decorated callable must have the uniform signature
    ``solver(graph, rng, ledger, **params) -> Estimate``.  Registration
    order is preserved and defines enumeration order everywhere (the CLI
    frontier, the experiment runner, the benchmark fixtures).
    """

    def decorator(solver: VariantSolver) -> VariantSolver:
        VARIANTS.add(name, VariantSpec(
            name=name,
            solver=solver,
            display_name=display_name,
            summary=summary,
            factor_formula=factor_formula,
            factor_bound=factor_bound,
            required_params=tuple(required_params),
            accepted_params=tuple(accepted_params),
            default_params=dict(default_params or {}),
            requires_undirected=requires_undirected,
            randomized=randomized,
            rounds_note=rounds_note,
        ))
        return solver

    return decorator


def run_variant(
    name: str,
    graph: WeightedGraph,
    rng: Optional[np.random.Generator] = None,
    ledger: Optional[RoundLedger] = None,
    apply_defaults: bool = False,
    **params: Any,
) -> Estimate:
    """Dispatch one solve through the registry — the single shared path.

    Handles default RNG/ledger creation, graph-requirement checks, the
    Theorem 2.1 zero-weight lifting, and parameter resolution, then calls
    the variant's solver.  The ledger and variant name are attached to the
    result's ``meta`` (``meta["ledger"]``, ``meta["variant"]``).

    ``apply_defaults=True`` fills the variant's ``default_params`` under
    any explicit (non-None) ``params`` — the mode for enumerating
    consumers (frontier tables, sweeps, benchmark fixtures), which must
    run e.g. the tradeoff variant without naming its ``t``.  Direct calls
    keep the strict contract and must pass required parameters.
    """
    spec = VARIANTS.get(name)
    if apply_defaults:
        merged = dict(spec.default_params)
        merged.update({k: v for k, v in params.items() if v is not None})
        params = merged
    resolved = spec.resolve_params(**params)
    spec.check_graph(graph)
    # Entropy here is an explicit caller opt-in: the public dispatch
    # boundary defaults to a fresh generator only when no rng/seed was
    # given, and every internal consumer (facade, CLI, benchmarks)
    # threads a seeded stream.
    rng = rng if rng is not None else np.random.default_rng()  # lint: allow[det-unseeded-rng]
    if ledger is None:
        ledger = RoundLedger(graph.n)
    if graph.num_edges and float(graph.edge_w.min()) == 0.0:
        from .zero_weights import lift_zero_weights

        def positive_solver(g: WeightedGraph) -> Estimate:
            return run_variant(name, g, rng=rng, ledger=ledger, **resolved)

        result = lift_zero_weights(graph, positive_solver, ledger=ledger)
    else:
        result = spec.solver(graph, rng, ledger, **resolved)
    result.meta["ledger"] = ledger
    result.meta["variant"] = name
    return result


# --------------------------------------------------------------------- #
# Built-in variants.  Solver modules are imported lazily inside each
# adapter so the registry can be imported from anywhere in repro.core
# without creating import cycles.
# --------------------------------------------------------------------- #


@register_variant(
    "exact",
    display_name="exact matmul",
    summary="Exact APSP by min-plus matrix exponentiation [CKK+19].",
    factor_formula="1",
    factor_bound=lambda n, **_: 1.0,
    requires_undirected=False,
    randomized=False,
    rounds_note="O(n^(1/3) log n) rounds",
)
def _solve_exact(
    graph: WeightedGraph,
    rng: np.random.Generator,
    ledger: Optional[RoundLedger],
    **_params: Any,
) -> Estimate:
    from .baselines import exact_apsp_baseline

    return exact_apsp_baseline(graph, ledger=ledger)


@register_variant(
    "uy90",
    display_name="UY90",
    summary="Ullman-Yannakakis sampled-skeleton APSP (exact w.h.p.).",
    factor_formula="1 (w.h.p.)",
    factor_bound=lambda n, **_: 1.0,
    accepted_params=("hop_parameter", "oversample"),
    rounds_note="~sqrt(n) rounds at the default hop parameter",
)
def _solve_uy90(
    graph: WeightedGraph,
    rng: np.random.Generator,
    ledger: Optional[RoundLedger],
    **params: Any,
) -> Estimate:
    from .baselines import uy90_baseline

    return uy90_baseline(graph, rng, ledger=ledger, **params)


@register_variant(
    "spanner-only",
    display_name="spanner-only",
    summary="One spanner broadcast [DFKL21/CZ22]: O(log n) approximation.",
    factor_formula="O(log n)",
    factor_bound=None,  # instance-dependent constant; see the formula
    accepted_params=("alpha",),
    rounds_note="O(1) rounds",
)
def _solve_spanner_only(
    graph: WeightedGraph,
    rng: np.random.Generator,
    ledger: Optional[RoundLedger],
    **params: Any,
) -> Estimate:
    from .baselines import spanner_only_baseline

    return spanner_only_baseline(graph, rng, ledger=ledger, **params)


@register_variant(
    "small-diameter",
    display_name="thm 7.1",
    summary="Theorem 7.1 pipeline (21-approx path, small weighted diameter).",
    factor_formula="21 (1+eps)^2-ish; <= 21",
    factor_bound=lambda n, **_: 21.0,
    # ``eps`` is deliberately not accepted: Theorem 7.1's internal eps
    # (1/14) is tied to its 21-bound and must not be overridden by the
    # facade's generic eps knob.
    accepted_params=("mode", "max_reductions", "final_stage", "bootstrap_alpha"),
    rounds_note="O(log log n) rounds for polylog weighted diameter",
)
def _solve_small_diameter(
    graph: WeightedGraph,
    rng: np.random.Generator,
    ledger: Optional[RoundLedger],
    **params: Any,
) -> Estimate:
    from .small_diameter import apsp_small_diameter

    return apsp_small_diameter(graph, rng, ledger=ledger, **params)


@register_variant(
    "theorem11",
    display_name="thm 1.1",
    summary="The headline O(1)-approximation in O(log log log n) rounds.",
    factor_formula="7^4 (1+eps)^2",
    factor_bound=lambda n, eps=0.1, **_: 7.0**4 * (1.0 + eps) ** 2,
    accepted_params=("eps",),
    rounds_note="O(log log log n) rounds",
)
def _solve_theorem11(
    graph: WeightedGraph,
    rng: np.random.Generator,
    ledger: Optional[RoundLedger],
    **params: Any,
) -> Estimate:
    from .apsp import apsp_theorem11

    return apsp_theorem11(graph, rng, ledger=ledger, **params)


@register_variant(
    "tradeoff",
    display_name="thm 1.2",
    summary="Theorem 1.2 rounds/approximation tradeoff with parameter t.",
    factor_formula="O(log^(2^-t) n)",
    factor_bound=None,  # the formula bound is reported in meta["tradeoff_bound"]
    required_params=("t",),
    accepted_params=("eps",),
    default_params={"t": 2},
    rounds_note="O(t) rounds",
)
def _solve_tradeoff(
    graph: WeightedGraph,
    rng: np.random.Generator,
    ledger: Optional[RoundLedger],
    *,
    t: int,
    **params: Any,
) -> Estimate:
    from .tradeoff import apsp_tradeoff

    return apsp_tradeoff(graph, t, rng, ledger=ledger, **params)


@register_variant(
    "large-bandwidth",
    display_name="thm 8.1",
    summary="Theorem 8.1: general graphs in Congested-Clique[log^4 n].",
    factor_formula="7^3 (1+eps)^2",
    factor_bound=lambda n, eps=0.1, **_: 7.0**3 * (1.0 + eps) ** 2,
    accepted_params=("eps",),
    rounds_note="O(log log n) big-bandwidth rounds",
)
def _solve_large_bandwidth(
    graph: WeightedGraph,
    rng: np.random.Generator,
    ledger: Optional[RoundLedger],
    **params: Any,
) -> Estimate:
    from .large_bandwidth import apsp_large_bandwidth

    return apsp_large_bandwidth(graph, rng, ledger=ledger, **params)


__all__ = [
    "VARIANTS",
    "VariantSpec",
    "register_variant",
    "run_variant",
]
