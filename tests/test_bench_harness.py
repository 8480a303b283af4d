"""The benchmark harness (``benchmarks/conftest.py``) is reproducible, and
the claims gate (``run_smoke._check_claims``) rejects what it should.

Each probe runs in a fresh interpreter from the ``benchmarks/`` directory,
the way the bench modules import the harness, so the per-process
``PYTHONHASHSEED`` salt and the ``REPRO_BENCH_SMOKE`` flag are under the
test's control.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import subprocess
import sys

import pytest

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


def load_run_smoke():
    path = os.path.join(REPO_ROOT, "benchmarks", "run_smoke.py")
    spec = importlib.util.spec_from_file_location("run_smoke", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_claims():
    return load_run_smoke()._check_claims


@pytest.fixture
def claims():
    """A fresh copy of the committed full-run claims artifact."""
    with open(os.path.join(REPO_ROOT, "BENCH_claims.json"), encoding="utf-8") as source:
        return copy.deepcopy(json.load(source))


def test_committed_claims_artifact_is_a_full_run_within_its_gate(claims, check_claims):
    assert claims["smoke"] is False
    assert claims["experiment"] == "E1-claims"
    for key in ("nproc", "machine", "python", "numpy", "git_sha"):
        assert claims["host"][key], key
    sizes = sorted(r["n"] for r in claims["records"] if r["variant"] == "theorem11")
    assert sizes == [1024, 2048, 4096, 8192]
    assert check_claims(claims) == []


def test_claims_gate_rejects_stretch_above_the_declared_factor(claims, check_claims):
    record = next(r for r in claims["records"] if r["variant"] == "small-diameter")
    record["factor"] = record["max_stretch"] / 2
    assert any("max stretch" in p for p in check_claims(claims))


def test_claims_gate_rejects_a_factor_above_the_registry_bound(claims, check_claims):
    record = next(r for r in claims["records"] if r["variant"] == "theorem11")
    record["factor_bound"] = record["max_stretch"] / 2
    assert any("declared bound" in p for p in check_claims(claims))


def test_claims_gate_rejects_a_tradeoff_factor_rising_with_t(claims, check_claims):
    rows = [r for r in claims["records"] if r["variant"] == "tradeoff" and r["n"] == 1024]
    last = max(rows, key=lambda r: r["params"]["t"])
    last["factor"] = min(r["factor"] for r in rows) * 2
    last["max_stretch"] = 1.0
    assert any("factor rises with t" in p for p in check_claims(claims))


def test_artifact_without_a_host_record_fails_the_smoke_gate(claims):
    check_host = load_run_smoke()._check_host
    assert check_host(claims) == []
    del claims["host"]
    assert check_host(claims) == ["no host record (conftest.host_fingerprint)"]


@pytest.fixture
def pipeline():
    """A fresh copy of the committed E18 pipeline artifact."""
    path = os.path.join(REPO_ROOT, "BENCH_pipeline.json")
    with open(path, encoding="utf-8") as source:
        return copy.deepcopy(json.load(source))


def test_committed_pipeline_artifact_passes_its_gate(pipeline):
    assert pipeline["smoke"] is False
    assert load_run_smoke()._check_pipeline(pipeline) == []


def test_construction_record_without_identity_key_fails_the_smoke_gate(pipeline):
    check_pipeline = load_run_smoke()._check_pipeline
    records = pipeline["construction"]
    record = next(r for r in records if r["phase"].startswith("knearest ("))
    del record["identical_to_reference"]
    assert any("not shown bit-identical" in p for p in check_pipeline(pipeline))


def test_spanner_record_is_gated_by_its_edge_bound(pipeline):
    check_pipeline = load_run_smoke()._check_pipeline
    record = next(r for r in pipeline["construction"] if "edge_bound_2x" in r)
    assert "identical_to_reference" not in record
    record["edges"] = int(record["edge_bound_2x"]) + 1
    assert any("edge bound" in p for p in check_pipeline(pipeline))
