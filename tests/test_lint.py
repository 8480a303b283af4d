"""Tests for the static analysis plane (``repro.lint`` / ``repro lint``).

Three layers:

* **fixture corpus** — ``tests/lint_fixtures/`` holds known-bad and
  known-good snippets per rule family, linted under *virtual* repo
  paths so the path-scoped rules engage; every bad fixture must produce
  exactly its expected findings and every good fixture none.
* **live tree** — the repository itself must lint clean (the CI gate),
  and injecting a violation into a copy of a real module must flip both
  the driver and the CLI to failure.
* **framework** — pragmas, rule scoping, report JSON round-trip, and
  the registry's mirror-of-``core.registry`` contract.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.lint import (
    get_rule,
    iter_rules,
    lint_source,
    lint_tree,
    rule_names,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")


def fixture_source(name: str) -> str:
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as handle:
        return handle.read()


def lint_fixture(name: str, virtual_path: str):
    return lint_source(
        fixture_source(name), virtual_path, root=REPO_ROOT
    )


# --------------------------------------------------------------------- #
# Registry / framework
# --------------------------------------------------------------------- #


class TestRuleRegistry:
    def test_five_families_registered(self):
        families = {spec.family for spec in iter_rules()}
        assert families == {
            "determinism", "concurrency", "json-safety", "allocation",
            "registry",
        }

    def test_expected_rules(self):
        assert set(rule_names()) == {
            "det-unseeded-rng", "det-global-random-state",
            "det-stdlib-random", "det-wallclock",
            "conc-blocking-in-lock", "conc-global-mutation",
            "json-nan-leak",
            "alloc-no-out-in-loop", "alloc-dense-temp-in-loop",
            "reg-variant-metadata", "reg-bench-tag",
        }

    def test_get_rule_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            get_rule("no-such-rule")

    def test_scoping(self):
        wallclock = get_rule("det-wallclock")
        assert wallclock.applies_to("src/repro/core/apsp.py")
        assert not wallclock.applies_to("src/repro/serve/service.py")
        assert not wallclock.applies_to("benchmarks/bench_query.py")
        bench = get_rule("reg-bench-tag")
        assert bench.applies_to("benchmarks/bench_query.py")
        assert not bench.applies_to("benchmarks/run_smoke.py")

    def test_duplicate_registration_rejected(self):
        from repro.lint import register_rule

        with pytest.raises(ValueError, match="already registered"):
            register_rule(
                "det-unseeded-rng", family="determinism", summary="dup"
            )(lambda ctx: [])


class TestPragmas:
    SOURCE = (
        "import numpy as np\n"
        "a = np.random.default_rng()  # lint: allow[det-unseeded-rng]\n"
        "# lint: allow[det-unseeded-rng]\n"
        "b = np.random.default_rng()\n"
        "c = np.random.default_rng()\n"
    )

    def test_same_line_and_line_above_suppress(self):
        findings = lint_source(self.SOURCE, "src/repro/core/fixture.py")
        assert [f.line for f in findings] == [5]
        assert findings[0].rule == "det-unseeded-rng"

    def test_star_pragma_allows_everything(self):
        source = "import numpy as np\nr = np.random.default_rng()  # lint: allow[*]\n"
        assert lint_source(source, "src/repro/core/fixture.py") == []

    def test_unrelated_pragma_does_not_suppress(self):
        source = (
            "import numpy as np\n"
            "r = np.random.default_rng()  # lint: allow[det-wallclock]\n"
        )
        findings = lint_source(source, "src/repro/core/fixture.py")
        assert [f.rule for f in findings] == ["det-unseeded-rng"]


# --------------------------------------------------------------------- #
# Fixture corpus: every family catches its known-bad snippets
# --------------------------------------------------------------------- #


class TestDeterminismFixtures:
    def test_bad_corpus(self):
        findings = lint_fixture("det_bad.py", "src/repro/core/fixture.py")
        by_rule = sorted(f.rule for f in findings)
        assert by_rule == [
            "det-global-random-state", "det-global-random-state",
            "det-stdlib-random", "det-stdlib-random", "det-stdlib-random",
            "det-unseeded-rng", "det-unseeded-rng",
            "det-wallclock",
        ]

    def test_good_corpus(self):
        assert lint_fixture("det_good.py", "src/repro/core/fixture.py") == []

    def test_wallclock_out_of_scope_in_serving_tier(self):
        findings = lint_fixture("det_bad.py", "src/repro/serve/fixture.py")
        assert "det-wallclock" not in {f.rule for f in findings}


class TestConcurrencyFixtures:
    def test_bad_corpus(self):
        findings = lint_fixture("conc_bad.py", "src/repro/serve/fixture.py")
        by_rule = sorted(f.rule for f in findings)
        assert by_rule == [
            "conc-blocking-in-lock", "conc-blocking-in-lock",
            "conc-blocking-in-lock",
            "conc-global-mutation", "conc-global-mutation",
        ]

    def test_good_corpus(self):
        assert lint_fixture("conc_good.py", "src/repro/serve/fixture.py") == []


class TestJsonSafetyFixtures:
    def test_bad_corpus(self):
        findings = lint_fixture("json_bad.py", "src/repro/serve/fixture.py")
        assert sorted(f.rule for f in findings) == ["json-nan-leak"] * 4

    def test_good_corpus(self):
        assert lint_fixture("json_good.py", "src/repro/serve/fixture.py") == []


class TestAllocationFixtures:
    def test_bad_corpus(self):
        findings = lint_fixture("alloc_bad.py", "src/repro/core/fixture.py")
        assert sorted(f.rule for f in findings) == [
            "alloc-dense-temp-in-loop",
            "alloc-no-out-in-loop", "alloc-no-out-in-loop",
        ]

    def test_good_corpus(self):
        assert lint_fixture("alloc_good.py", "src/repro/core/fixture.py") == []

    def test_out_of_scope_in_benchmarks(self):
        # Benchmarks allocate freely on purpose.
        findings = lint_fixture("alloc_bad.py", "benchmarks/bench_fixture.py")
        assert findings == []


class TestRegistryFixtures:
    def test_bad_corpus(self):
        findings = lint_fixture("reg_bad.py", "src/repro/core/fixture.py")
        assert sorted(f.rule for f in findings) == ["reg-variant-metadata"] * 6

    def test_good_corpus(self):
        assert lint_fixture("reg_good.py", "src/repro/core/fixture.py") == []

    def test_bench_bad_corpus(self):
        findings = lint_fixture("bench_bad.py", "benchmarks/bench_fixture.py")
        assert [f.rule for f in findings] == ["reg-bench-tag"]
        assert "SUITES" in findings[0].message

    def test_bench_good_corpus(self):
        assert lint_fixture("bench_good.py", "benchmarks/bench_fixture.py") == []


# --------------------------------------------------------------------- #
# Live tree: the CI gate
# --------------------------------------------------------------------- #


class TestLiveTree:
    def test_repository_lints_clean(self):
        report = lint_tree(REPO_ROOT)
        assert report.parse_errors == []
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )
        assert report.files_scanned > 100
        assert report.clean

    def test_cli_exits_zero_on_live_tree(self, capsys):
        from repro.cli import main

        assert main(["lint", "--root", REPO_ROOT]) == 0
        assert "clean" in capsys.readouterr().out

    def test_injected_violation_fails_driver_and_cli(self, tmp_path, capsys):
        # The acceptance check: an unseeded default_rng() injected into a
        # copy of the real kernels module must fail the gate.
        target = tmp_path / "src" / "repro" / "semiring"
        target.mkdir(parents=True)
        source_path = os.path.join(
            REPO_ROOT, "src", "repro", "semiring", "kernels.py"
        )
        with open(source_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        source += "\n\n_INJECTED = np.random.default_rng()\n"
        (target / "kernels.py").write_text(source, encoding="utf-8")

        report = lint_tree(str(tmp_path))
        assert [f.rule for f in report.findings] == ["det-unseeded-rng"]
        assert not report.clean

        from repro.cli import main

        assert main(["lint", "--root", str(tmp_path)]) == 1
        assert "det-unseeded-rng" in capsys.readouterr().out

    def test_json_artifact_round_trips(self, tmp_path, capsys):
        from repro.cli import main

        artifact = tmp_path / "lint_report.json"
        assert main(["lint", "--root", REPO_ROOT, "--json", str(artifact)]) == 0
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["clean"] is True
        assert payload["tool"] == "repro-lint"
        assert payload["findings"] == []
        assert payload["files_scanned"] > 100
        assert {r["rule"] for r in payload["rules"]} == set(rule_names())
        # Strict JSON round-trip (the artifact is itself a snapshot).
        assert json.loads(json.dumps(payload)) == payload

    def test_rule_filter_and_listing(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in ("determinism", "concurrency", "json-safety",
                       "allocation", "registry"):
            assert f"[{family}]" in out
        assert main([
            "lint", "--root", REPO_ROOT, "--rules", "det-unseeded-rng",
        ]) == 0

    def test_fixture_corpus_is_skipped_by_tree_driver(self):
        # The known-bad corpus must never fail the live gate.
        report = lint_tree(REPO_ROOT, paths=[FIXTURES])
        assert report.files_scanned == 0


# --------------------------------------------------------------------- #
# run_smoke integration: the lint artifact is validated alongside BENCH
# --------------------------------------------------------------------- #


class TestRunSmokeIntegration:
    def _load_run_smoke(self):
        sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))
        try:
            import importlib

            module = importlib.import_module("run_smoke")
            return importlib.reload(module)
        finally:
            sys.path.pop(0)

    def test_validate_lint_artifact_accepts_clean(self, tmp_path):
        run_smoke = self._load_run_smoke()
        artifact = tmp_path / "lint_report.json"
        artifact.write_text(json.dumps({
            "tool": "repro-lint", "clean": True, "files_scanned": 150,
            "parse_errors": [], "findings": [],
            "rules": [{"rule": "det-unseeded-rng"}],
        }), encoding="utf-8")
        assert run_smoke.validate_lint_artifact(str(artifact)) == []

    def test_validate_lint_artifact_rejects_findings(self, tmp_path):
        run_smoke = self._load_run_smoke()
        artifact = tmp_path / "lint_report.json"
        artifact.write_text(json.dumps({
            "tool": "repro-lint", "clean": False, "files_scanned": 150,
            "parse_errors": [], "rules": [],
            "findings": [{"rule": "det-unseeded-rng", "path": "x.py",
                          "line": 1, "col": 0, "message": "m",
                          "severity": "error"}],
        }), encoding="utf-8")
        problems = run_smoke.validate_lint_artifact(str(artifact))
        assert problems and any("finding" in p for p in problems)

    def test_validate_lint_artifact_rejects_missing(self, tmp_path):
        run_smoke = self._load_run_smoke()
        problems = run_smoke.validate_lint_artifact(
            str(tmp_path / "absent.json")
        )
        assert problems == [f"{tmp_path / 'absent.json'}: not written"]
