"""repro — reproduction of "Improved All-Pairs Approximate Shortest Paths in
Congested Clique" (Bui, Chandra, Chang, Dory, Leitersdorf; PODC 2024).

Quickstart — the unified solver facade::

    import numpy as np
    from repro import ApspSolver, SolverConfig, erdos_renyi

    rng = np.random.default_rng(0)
    graphs = [erdos_renyi(128, 0.05, rng) for _ in range(3)]

    solver = ApspSolver(SolverConfig(variant="theorem11", seed=0,
                                     validation="stretch"))
    results = solver.solve_many(graphs)        # concurrent batch execution
    for r in results:
        print(r.factor,                        # guaranteed factor
              r.stretch.max_stretch,           # measured-stretch certificate
              r.total_rounds,                  # Congested Clique rounds
              r.wall_time_s)
    payload = results[0].to_json()             # ship to downstream services

Every algorithm (Theorem 1.1, the Theorem 1.2 tradeoff, Theorem 7.1,
Theorem 8.1, and the exact/UY90/spanner baselines) lives in one variant
registry (:mod:`repro.core.registry`); ``SolverConfig(variant=...)``
selects by name and adding an algorithm is a one-decorator change.

Back-compat path — the legacy convenience function::

    from repro import approximate_apsp

    result = approximate_apsp(graphs[0], rng=np.random.default_rng(0))
    print(result.factor, result.meta["ledger"].total_rounds)

Package layout (see DESIGN.md):

* :mod:`repro.api` — the :class:`ApspSolver` facade, configs, results,
* :mod:`repro.cclique` — Congested Clique simulator + round accounting,
* :mod:`repro.graphs` — graph containers, generators, exact distances,
* :mod:`repro.semiring` — min-plus algebra, filtered matrix powers,
* :mod:`repro.spanners` — spanner constructions (Lemma 7.1),
* :mod:`repro.mst` — Borůvka engine for the zero-weight reduction,
* :mod:`repro.core` — the paper's algorithms (Sections 4–8) + the
  variant registry,
* :mod:`repro.serve` — the distance-oracle query plane (oracle
  artifacts, batch greedy routing, k-nearest, stretch audits) and the
  async serving tier on top (:class:`OracleService`: micro-batched
  front-end, per-tenant stores, metrics),
* :mod:`repro.analysis` — stretch profiles and experiment tables.
"""

from .api import ApspResult, ApspSolver, SolverConfig
from .cclique import ArrayClique, MessageBatch, RoundLedger, SimulatedClique
from .core import (
    Estimate,
    VariantSpec,
    approximate_apsp,
    apsp_large_bandwidth,
    apsp_small_diameter,
    apsp_theorem11,
    apsp_tradeoff,
    build_knearest_hopset,
    build_skeleton,
    exact_apsp_baseline,
    get_variant,
    iter_variants,
    knearest_exact_via_hopset,
    knearest_iterated,
    lift_zero_weights,
    reduce_approximation,
    register_variant,
    run_variant,
    spanner_only_baseline,
    uy90_baseline,
    variant_names,
)
from .graphs import (
    ExactOracleCache,
    WeightedGraph,
    cached_exact_apsp,
    erdos_renyi,
    exact_apsp,
    graph_content_hash,
    grid_graph,
    path_with_shortcuts,
    preferential_attachment,
)
from .semiring import minplus
from .serve import (
    BatchRoutes,
    DistanceOracle,
    MicroBatcher,
    OracleService,
    OracleStore,
    ServiceConfig,
    ServiceMetrics,
    StretchAudit,
    audit_stretch,
    oracle_handle,
    route_batch,
)

__version__ = "1.4.0"

__all__ = [
    "ApspResult",
    "ApspSolver",
    "BatchRoutes",
    "DistanceOracle",
    "Estimate",
    "ExactOracleCache",
    "ArrayClique",
    "MessageBatch",
    "MicroBatcher",
    "OracleService",
    "OracleStore",
    "ServiceConfig",
    "ServiceMetrics",
    "RoundLedger",
    "SimulatedClique",
    "SolverConfig",
    "StretchAudit",
    "VariantSpec",
    "WeightedGraph",
    "approximate_apsp",
    "audit_stretch",
    "oracle_handle",
    "route_batch",
    "cached_exact_apsp",
    "graph_content_hash",
    "minplus",
    "apsp_large_bandwidth",
    "apsp_small_diameter",
    "apsp_theorem11",
    "apsp_tradeoff",
    "build_knearest_hopset",
    "build_skeleton",
    "erdos_renyi",
    "exact_apsp",
    "exact_apsp_baseline",
    "get_variant",
    "grid_graph",
    "iter_variants",
    "knearest_exact_via_hopset",
    "knearest_iterated",
    "lift_zero_weights",
    "path_with_shortcuts",
    "preferential_attachment",
    "reduce_approximation",
    "register_variant",
    "run_variant",
    "spanner_only_baseline",
    "uy90_baseline",
    "variant_names",
    "__version__",
]
