"""Scenario registry: one catalogue of every chaos scenario in the repo.

The resilience counterpart of :mod:`repro.core.registry`, built on the
same :class:`~repro.registry.Registry` type: a scenario pairs a
:class:`~repro.cclique.faults.FaultPlan` with a protocol run and a
scoring rule, registers itself once via :func:`register_scenario` into
:data:`SCENARIOS`, and every consumer — ``python -m repro chaos``,
``benchmarks/bench_chaos.py``, the test suite — enumerates the same
catalogue.

The uniform runner signature is
``runner(n, seed, **params) -> ChaosReport``; :func:`run_scenario` is
the shared dispatch path owning parameter-default resolution and report
stamping (scenario name, ``n``, ``seed``, resolved params), so a
runner only fills in the plan, the runs, and the score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from ..registry import Registry
from .scoring import ChaosReport

#: Uniform runner signature: (n, seed, **params) -> ChaosReport.
ScenarioRunner = Callable[..., ChaosReport]


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything a consumer needs to know about one registered scenario."""

    name: str
    runner: ScenarioRunner
    summary: str
    faults: str  # human description of what the plan injects
    recovery: str  # human description of the recovery mechanism scored
    default_params: Mapping[str, Any] = field(default_factory=dict)

    def resolve_params(self, **params: Any) -> Dict[str, Any]:
        """Defaults overlaid with explicit values; unknown keys raise."""
        unknown = set(params) - set(self.default_params)
        if unknown:
            raise ValueError(
                f"scenario {self.name!r} does not accept "
                f"{', '.join(sorted(unknown))}; "
                f"accepted: {', '.join(sorted(self.default_params))}"
            )
        resolved = dict(self.default_params)
        resolved.update(
            {key: value for key, value in params.items() if value is not None}
        )
        return resolved


#: The scenario catalogue, in registration order.
SCENARIOS: Registry[ScenarioSpec] = Registry("scenario")


def register_scenario(
    name: str,
    *,
    summary: str,
    faults: str,
    recovery: str,
    default_params: Optional[Mapping[str, Any]] = None,
) -> Callable[[ScenarioRunner], ScenarioRunner]:
    """Decorator registering one chaos scenario.

    Registration order is preserved and defines enumeration order
    everywhere (the CLI table, the benchmark sweep).
    """

    def decorator(runner: ScenarioRunner) -> ScenarioRunner:
        SCENARIOS.add(name, ScenarioSpec(
            name=name,
            runner=runner,
            summary=summary,
            faults=faults,
            recovery=recovery,
            default_params=dict(default_params or {}),
        ))
        return runner

    return decorator


def run_scenario(
    name: str, n: int = 64, seed: int = 0, **params: Any
) -> ChaosReport:
    """Run one registered scenario and return its stamped report."""
    spec = SCENARIOS.get(name)
    resolved = spec.resolve_params(**params)
    report = spec.runner(int(n), int(seed), **resolved)
    report.scenario = spec.name
    report.n = int(n)
    report.seed = int(seed)
    report.params = resolved
    return report


__all__ = [
    "SCENARIOS",
    "ScenarioRunner",
    "ScenarioSpec",
    "register_scenario",
    "run_scenario",
]
