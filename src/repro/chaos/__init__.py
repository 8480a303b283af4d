"""Chaos harness for the communication plane (see DESIGN.md section 11).

Pairs seeded :class:`~repro.cclique.faults.FaultPlan` injections with
protocol runs and scores the outcome — delivery rate, stretch
degradation vs the fault-free differential reference, rounds to
recovery.  Scenarios live in one :class:`~repro.registry.Registry`,
``SCENARIOS``, the same catalogue type as the algorithm variants::

    from repro.chaos import SCENARIOS, run_scenario

    for name in SCENARIOS.names():
        report = run_scenario(name, n=64, seed=0)
        print(name, report.score)

Entry points: ``python -m repro chaos`` (scored table + JSON report),
``benchmarks/bench_chaos.py`` (E22 curves), ``examples/chaos_demo.py``.
"""

from .registry import (
    SCENARIOS,
    ScenarioRunner,
    ScenarioSpec,
    register_scenario,
    run_scenario,
)
from .scoring import (
    ChaosReport,
    RunMetrics,
    delivery_rate,
    recovery_score,
    stretch_degradation,
)

# Importing the module registers the built-in scenarios.
from . import scenarios  # noqa: E402,F401  (registration side effect)

__all__ = [
    "SCENARIOS",
    "ChaosReport",
    "RunMetrics",
    "ScenarioRunner",
    "ScenarioSpec",
    "delivery_rate",
    "recovery_score",
    "register_scenario",
    "run_scenario",
    "stretch_degradation",
]
