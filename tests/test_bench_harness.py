"""The benchmark harness (``benchmarks/conftest.py``) is reproducible.

Each probe runs in a fresh interpreter from the ``benchmarks/`` directory,
the way the bench modules import the harness, so the per-process
``PYTHONHASHSEED`` salt and the ``REPRO_BENCH_SMOKE`` flag are under the
test's control.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SEED_PROBE = r"""
import json

from conftest import rng_for, workload

graph = workload("er", 48)
try:
    workload("no-such-family", 8)
    unknown = None
except ValueError as error:
    unknown = str(error)
print(json.dumps({
    "draws": rng_for("e1:er:96").integers(1 << 30, size=4).tolist(),
    "graph": [graph.n, graph.num_edges, float(graph.edge_w.sum())],
    "unknown": unknown,
}))
"""

_ARTIFACT_PROBE = r"""
import json
import os

from conftest import ROOT, artifact_path

print(json.dumps(os.path.relpath(artifact_path("BENCH_chaos.json"), ROOT)))
"""


def run_probe(probe: str, **env_overrides: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("REPRO_BENCH_SMOKE", None)
    env.update(env_overrides)
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=os.path.join(REPO_ROOT, "benchmarks"),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_seeds_and_workloads_ignore_hash_salt():
    first = run_probe(_SEED_PROBE, PYTHONHASHSEED="1")
    second = run_probe(_SEED_PROBE, PYTHONHASHSEED="2")
    assert first["draws"] == second["draws"]
    assert first["graph"] == second["graph"]
    assert "unknown family 'no-such-family'" in first["unknown"]


def test_smoke_artifacts_stay_out_of_the_repo_root():
    assert run_probe(_ARTIFACT_PROBE) == "BENCH_chaos.json"
    smoke = run_probe(_ARTIFACT_PROBE, REPRO_BENCH_SMOKE="1")
    assert smoke == os.path.join(".bench_smoke", "BENCH_chaos.json")
