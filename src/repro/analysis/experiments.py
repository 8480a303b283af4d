"""Seed-sweep experiment runner.

The paper's randomized guarantees hold w.h.p.; a reproduction should
therefore report *distributions* over seeds, not single runs.  The runner
executes one algorithm across (workload x seed) grids and aggregates
stretch and round statistics into the repo's table format.

Algorithms come either as raw callables (:func:`run_sweep`) or by variant
name from the registry (:func:`registry_algorithms`,
:func:`run_registry_sweep`) — the latter is how experiments stay in sync
with the solver catalogue without hardcoded dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..cclique.accounting import RoundLedger
from ..core.registry import VARIANTS, run_variant
from ..core.results import Estimate
from ..graphs.distances import cached_exact_apsp
from ..graphs.graph import WeightedGraph
from ..graphs.validation import check_estimate
from .reporting import format_table

#: An algorithm under test: (graph, rng, ledger) -> Estimate.
Algorithm = Callable[[WeightedGraph, np.random.Generator, Optional[RoundLedger]], Estimate]

#: A workload: seed -> graph.
Workload = Callable[[np.random.Generator], WeightedGraph]


@dataclass
class SweepCase:
    """One (workload, seed) execution."""

    workload: str
    seed: int
    n: int
    factor: float
    max_stretch: float
    mean_stretch: float
    rounds: int
    sound: bool


@dataclass
class SweepSummary:
    """Aggregate over the seeds of one workload."""

    workload: str
    runs: int
    factor: float
    max_stretch_worst: float
    max_stretch_mean: float
    max_stretch_std: float
    mean_stretch_mean: float
    rounds_mean: float
    rounds_max: int
    all_sound: bool


@dataclass
class SweepResult:
    """All cases plus per-workload summaries."""

    cases: List[SweepCase] = field(default_factory=list)
    summaries: List[SweepSummary] = field(default_factory=list)

    def table(self, title: str) -> str:
        """Render the per-workload summary as a markdown table."""
        rows = [
            (
                s.workload,
                s.runs,
                round(s.factor, 1),
                round(s.max_stretch_worst, 3),
                f"{s.max_stretch_mean:.3f}+-{s.max_stretch_std:.3f}",
                round(s.mean_stretch_mean, 3),
                round(s.rounds_mean, 1),
                "yes" if s.all_sound else "NO",
            )
            for s in self.summaries
        ]
        return format_table(
            [
                "workload",
                "seeds",
                "factor bound",
                "worst max-stretch",
                "max-stretch mean+-std",
                "mean stretch",
                "rounds mean",
                "sound",
            ],
            rows,
            title=title,
        )


def registry_algorithms(
    variants: Optional[Sequence[str]] = None,
    **params: object,
) -> Dict[str, Algorithm]:
    """Algorithm callables for registered variants, keyed by variant name.

    Enumerates the variant registry (no hardcoded dispatch): every
    registered algorithm — or the requested subset — is wrapped into the
    runner's uniform ``(graph, rng, ledger) -> Estimate`` signature, with
    the variant's declared default parameters (e.g. thm 1.2's ``t=2``)
    merged under any explicit ``params``.
    """
    requested = None
    if variants is not None:
        requested = list(variants)
        for name in requested:
            VARIANTS.get(name)  # fail fast on unknown names
    algorithms: Dict[str, Algorithm] = {}
    for spec in VARIANTS:
        if requested is not None and spec.name not in requested:
            continue

        def algorithm(
            graph: WeightedGraph,
            rng: np.random.Generator,
            ledger: Optional[RoundLedger],
            _name: str = spec.name,
            _params: Dict[str, object] = dict(params),
        ) -> Estimate:
            return run_variant(
                _name, graph, rng=rng, ledger=ledger, apply_defaults=True, **_params
            )

        algorithms[spec.name] = algorithm
    return algorithms


def run_registry_sweep(
    workloads: Dict[str, Workload],
    seeds: Sequence[int],
    variants: Optional[Sequence[str]] = None,
    clique_n_hint: Optional[int] = None,
    **params: object,
) -> Dict[str, "SweepResult"]:
    """One :func:`run_sweep` per registered variant (or requested subset)."""
    return {
        name: run_sweep(algorithm, workloads, seeds, clique_n_hint=clique_n_hint)
        for name, algorithm in registry_algorithms(variants, **params).items()
    }


def run_sweep(
    algorithm: Algorithm,
    workloads: Dict[str, Workload],
    seeds: Sequence[int],
    clique_n_hint: Optional[int] = None,
) -> SweepResult:
    """Execute ``algorithm`` over every (workload, seed) pair.

    Each case gets its own graph, RNG, and ledger; soundness (no
    underestimates) and the factor bound are *asserted* per case — a
    violated guarantee fails loudly rather than averaging away.
    """
    result = SweepResult()
    for name, factory in workloads.items():
        cases: List[SweepCase] = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            graph = factory(rng)
            ledger = RoundLedger(clique_n_hint or graph.n)
            estimate = algorithm(graph, rng, ledger)
            # Content-hash memoised: a registry sweep rebuilds the same
            # (workload, seed) graph once per variant, but Dijkstra runs
            # only once across all of them.
            exact = cached_exact_apsp(graph)
            report = check_estimate(exact, estimate.estimate)
            if not report.sound:
                raise AssertionError(
                    f"{name}/seed {seed}: estimate underestimates "
                    f"{report.underestimates} pairs"
                )
            if report.max_stretch > estimate.factor + 1e-9:
                raise AssertionError(
                    f"{name}/seed {seed}: stretch {report.max_stretch} "
                    f"exceeds the factor {estimate.factor}"
                )
            cases.append(
                SweepCase(
                    workload=name,
                    seed=seed,
                    n=graph.n,
                    factor=estimate.factor,
                    max_stretch=report.max_stretch,
                    mean_stretch=report.mean_stretch,
                    rounds=ledger.total_rounds,
                    sound=report.sound,
                )
            )
        result.cases.extend(cases)
        max_stretches = np.array([c.max_stretch for c in cases])
        result.summaries.append(
            SweepSummary(
                workload=name,
                runs=len(cases),
                factor=max(c.factor for c in cases),
                max_stretch_worst=float(max_stretches.max()),
                max_stretch_mean=float(max_stretches.mean()),
                max_stretch_std=float(max_stretches.std()),
                mean_stretch_mean=float(
                    np.mean([c.mean_stretch for c in cases])
                ),
                rounds_mean=float(np.mean([c.rounds for c in cases])),
                rounds_max=max(c.rounds for c in cases),
                all_sound=all(c.sound for c in cases),
            )
        )
    return result
