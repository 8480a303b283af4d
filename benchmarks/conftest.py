"""Shared workloads and reporting for the benchmark/experiment harness.

Every module regenerates one experiment from DESIGN.md's per-experiment
index.  Conventions:

* each experiment prints a markdown table ("paper claim" vs "measured") and
  appends it to ``bench_results.md`` at the repo root;
* each experiment writes one ``BENCH_*.json`` artifact that
  ``run_smoke.py`` gates;
* tables must state the *bound* next to the *measured* value — the
  reproduction's claim is "measured within bound, shape as in the paper".
"""

from __future__ import annotations

import os
import platform
import subprocess
import zlib
from typing import Any, Dict

import numpy as np
import pytest

from repro.cclique import RoundLedger
from repro.cli import build_workload
from repro.core.registry import run_variant
from repro.graphs import WeightedGraph, cached_exact_apsp

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
RESULTS_FILE = os.path.join(ROOT, "bench_results.md")

#: Smoke runs (``REPRO_BENCH_SMOKE=1``) write their artifacts here,
#: gitignored, so they never overwrite the committed full-run artifacts.
SMOKE_ARTIFACT_DIR = os.path.join(ROOT, ".bench_smoke")


def sink_path() -> str:
    return os.path.abspath(RESULTS_FILE)


@pytest.fixture(scope="session")
def results_sink() -> str:
    """Results file, truncated once per session."""
    path = sink_path()
    marker = path + ".session"
    if not os.path.exists(marker) or os.environ.get("REPRO_FRESH", "1") == "1":
        with open(path, "w", encoding="utf-8") as sink:
            sink.write("# Benchmark results (regenerated)\n\n")
        with open(marker, "w", encoding="utf-8") as m:
            m.write("session\n")
        os.environ["REPRO_FRESH"] = "0"
    return path


def artifact_path(name: str) -> str:
    """Where the ``BENCH_*.json`` artifact ``name`` is written and read.

    Full runs use the committed artifact at the repo root; smoke runs use
    :data:`SMOKE_ARTIFACT_DIR`.
    """
    if os.environ.get("REPRO_BENCH_SMOKE", "0") != "1":
        return os.path.join(ROOT, name)
    os.makedirs(SMOKE_ARTIFACT_DIR, exist_ok=True)
    return os.path.join(SMOKE_ARTIFACT_DIR, name)


def host_fingerprint() -> Dict[str, Any]:
    """Where a full-run artifact was measured, and on which commit.

    ``git_dirty`` marks a run from a working tree with uncommitted changes.
    """
    def git(*args: str) -> Any:
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def rng_for(tag: str) -> np.random.Generator:
    """A generator seeded from ``tag`` alone.

    ``zlib.crc32`` rather than ``hash``: ``str`` hashes are salted per
    process (``PYTHONHASHSEED``), which would change every workload from
    one run to the next.
    """
    return np.random.default_rng(zlib.crc32(tag.encode("utf-8")))


def run_registered(name: str, graph: WeightedGraph, tag: str, **params):
    """Run one registered variant on a fresh ledger; returns (result, ledger).

    The shared entry point for benchmarks that enumerate the registry:
    default parameters declared by the variant (thm 1.2's ``t``) are
    applied, explicit ``params`` win.
    """
    ledger = RoundLedger(graph.n)
    result = run_variant(
        name, graph, rng_for(tag), ledger=ledger, apply_defaults=True, **params
    )
    return result, ledger


_GRAPH_CACHE: Dict[str, WeightedGraph] = {}


def workload(name: str, n: int) -> WeightedGraph:
    """Named, cached benchmark workloads (the CLI's ``--family`` graphs)."""
    key = f"{name}:{n}"
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = build_workload(name, n, rng_for(key))
    return _GRAPH_CACHE[key]


def exact_for(name: str, n: int) -> np.ndarray:
    # Content-hash memoised oracle: shared with the solver facade and the
    # sweep runner (and LRU/byte bounded there), so cross-harness reruns
    # of one workload never recompute Dijkstra.
    return cached_exact_apsp(workload(name, n))
