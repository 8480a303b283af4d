"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, build_workload, main

import numpy as np


class TestWorkloadBuilder:
    @pytest.mark.parametrize(
        "family", ["er", "er-dense", "grid", "path", "pa", "heavy", "poly"]
    )
    def test_families_construct(self, family):
        rng = np.random.default_rng(0)
        graph = build_workload(family, 36, rng)
        assert graph.n >= 30

    def test_unknown_family(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            build_workload("bogus", 16, rng)


class TestCommands:
    def test_run_theorem11(self, capsys):
        code = main(["run", "--n", "40", "--seed", "1", "--variant", "theorem11"])
        assert code == 0
        out = capsys.readouterr().out
        assert "factor" in out
        assert "rounds" in out
        assert "OK" in out  # stretch within bound

    def test_run_small_diameter(self, capsys):
        code = main(["run", "--n", "40", "--variant", "small-diameter"])
        assert code == 0
        assert "factor" in capsys.readouterr().out

    def test_run_exact(self, capsys):
        code = main(["run", "--n", "32", "--variant", "exact"])
        assert code == 0
        out = capsys.readouterr().out
        assert "factor  : 1.00" in out

    def test_run_tradeoff(self, capsys):
        code = main(["run", "--n", "40", "--variant", "tradeoff", "--t", "1"])
        assert code == 0
        assert "rounds" in capsys.readouterr().out

    def test_frontier(self, capsys):
        code = main(["frontier", "--n", "40"])
        assert code == 0
        out = capsys.readouterr().out
        # Every registered variant appears, seed names included.
        from repro.core import VARIANTS

        for spec in VARIANTS:
            assert spec.display_name in out
        for name in ("exact matmul", "UY90", "spanner-only", "thm 7.1", "thm 1.1"):
            assert name in out

    def test_run_registry_variants(self, capsys):
        """The run command accepts variants that only exist via the registry."""
        code = main(["run", "--n", "36", "--seed", "2", "--variant", "uy90"])
        assert code == 0
        assert "factor" in capsys.readouterr().out

    def test_tradeoff_sweep(self, capsys):
        code = main(["tradeoff", "--n", "40", "--max-t", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Theorem 1.2" in out

    def test_simulate(self, capsys):
        code = main(["simulate", "--n", "24"])
        assert code == 0
        out = capsys.readouterr().out
        assert "routing" in out
        assert "Bellman-Ford" in out
        assert "max error 0" in out

    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_grid_family_via_cli(self, capsys):
        code = main(["run", "--n", "36", "--family", "grid", "--variant",
                     "small-diameter"])
        assert code == 0

    def test_query_command(self, capsys):
        code = main(["query", "--n", "36", "--seed", "3", "--variant",
                     "small-diameter", "--queries", "5", "--k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "random distance queries" in out
        assert "oracle" in out
        assert "nearest of node" in out

    def test_query_command_reuses_store(self, capsys):
        from repro.serve import DEFAULT_STORE

        DEFAULT_STORE.clear()
        args = ["query", "--n", "30", "--seed", "4", "--variant",
                "spanner-only", "--queries", "3"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "store   : miss (workload solved, oracle built)" in out
        misses = DEFAULT_STORE.misses
        assert main(args) == 0  # second run hits the process-wide store
        out = capsys.readouterr().out
        assert "store   : hit (cached oracle reused; solve skipped)" in out
        assert DEFAULT_STORE.misses == misses
        assert DEFAULT_STORE.hits >= 1
        assert DEFAULT_STORE.builds == 1

    def test_query_store_hit_truly_skips_solver(self, capsys, monkeypatch):
        """On a store hit the solver never runs — not just the build."""
        from repro import cli
        from repro.serve import DEFAULT_STORE

        DEFAULT_STORE.clear()
        args = ["query", "--n", "28", "--seed", "6", "--variant",
                "spanner-only", "--queries", "2"]
        assert main(args) == 0
        capsys.readouterr()

        class ExplodingSolver:
            def __init__(self, *a, **k):
                raise AssertionError("solver should not be constructed on a hit")

        monkeypatch.setattr(cli, "ApspSolver", ExplodingSolver)
        assert main(args) == 0
        assert "solve skipped" in capsys.readouterr().out

    def test_routes_command_prints_provenance(self, capsys):
        from repro.serve import DEFAULT_STORE

        DEFAULT_STORE.clear()
        code = main(["routes", "--n", "30", "--seed", "8", "--variant",
                     "spanner-only", "--pairs", "40"])
        assert code == 0
        assert "store   : miss" in capsys.readouterr().out

    def test_query_and_routes_share_one_oracle(self, capsys):
        """The two commands address the store identically (same handle)."""
        from repro.serve import DEFAULT_STORE

        DEFAULT_STORE.clear()
        common = ["--n", "30", "--seed", "9", "--variant", "spanner-only"]
        assert main(["query", *common, "--queries", "2"]) == 0
        assert main(["routes", *common, "--pairs", "20"]) == 0
        out = capsys.readouterr().out
        assert "store   : hit" in out
        assert DEFAULT_STORE.builds == 1

    def test_routes_command(self, capsys):
        code = main(["routes", "--n", "36", "--seed", "3", "--variant",
                     "small-diameter", "--pairs", "120"])
        assert code == 0
        out = capsys.readouterr().out
        assert "routing" in out
        assert "delivered" in out
        assert "example packet" in out

    def test_query_accepts_tradeoff_variant(self, capsys):
        """Regression: variants requiring t must work via --t, not crash."""
        code = main(["query", "--n", "30", "--variant", "tradeoff",
                     "--t", "1", "--queries", "2"])
        assert code == 0
        assert "oracle" in capsys.readouterr().out

    def test_query_zero_queries(self, capsys):
        """Regression: an empty query batch must not crash the k-sample."""
        code = main(["query", "--n", "24", "--queries", "0"])
        assert code == 0
        assert "nearest of node" in capsys.readouterr().out

    def test_serve_bench_closed_loop(self, capsys):
        code = main(["serve-bench", "--n", "32", "--variant", "spanner-only",
                     "--levels", "2,4", "--requests", "40",
                     "--max-batch", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "serve-bench: distance endpoint" in out
        assert "single" in out and "batched" in out
        assert "snapshot JSON round-trip OK" in out
        assert "builds" in out

    def test_serve_bench_open_loop_route(self, capsys):
        code = main(["serve-bench", "--n", "32", "--variant", "spanner-only",
                     "--mode", "open", "--endpoint", "route",
                     "--levels", "500", "--requests", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "open-loop" in out
        assert "req/s" in out

    def test_serve_bench_k_nearest(self, capsys):
        code = main(["serve-bench", "--n", "32", "--variant", "spanner-only",
                     "--endpoint", "k_nearest", "--levels", "4",
                     "--requests", "20", "--k", "3"])
        assert code == 0
        assert "k_nearest endpoint" in capsys.readouterr().out

    def test_serve_bench_rejects_empty_levels(self):
        with pytest.raises(ValueError):
            main(["serve-bench", "--n", "24", "--levels", ",",
                  "--variant", "spanner-only"])

    def test_serve_bench_has_no_flush_deadline(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-bench", "--max-delay-ms", "2"])
        assert excinfo.value.code == 2


class TestChaosCommand:
    def test_list_prints_registry(self, capsys):
        code = main(["chaos", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "route-drop" in out
        assert "bellman-ford-drop" in out

    def test_single_scenario_with_overrides(self, capsys):
        code = main(
            [
                "chaos",
                "--scenario",
                "route-drop",
                "--n",
                "16",
                "--seed",
                "1",
                "--set",
                "drop=0.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "route-drop" in out

    def test_json_artifact_round_trips(self, tmp_path, capsys):
        import json

        target = tmp_path / "chaos.json"
        code = main(
            [
                "chaos",
                "--scenario",
                "route-crash",
                "--n",
                "16",
                "--json",
                str(target),
            ]
        )
        assert code == 0
        data = json.loads(target.read_text())
        assert data["scenario"] == "route-crash"
        assert data["n"] == 16
        assert "score" in data and "plan" in data

    def test_run_all_scenarios(self, capsys):
        code = main(["chaos", "--n", "12"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("route-drop", "route-crash", "route-corrupt"):
            assert name in out
