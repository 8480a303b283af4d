"""Tests for the unified solver facade and the variant registry.

Pins the contracts the redesign introduced:

* registry completeness — every registered variant runs on a small ER
  graph, never underestimates, and respects its declared factor bound;
* ``SolverConfig`` validation errors;
* ``solve_many`` determinism — identical results across executors and
  bit-identical to sequential legacy ``approximate_apsp`` calls on the
  same RNG streams;
* ``ApspResult`` JSON round-trips.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import approximate_apsp, erdos_renyi
from repro.api import ApspResult, ApspSolver, ArtifactIntegrityError, SolverConfig
from repro.core import registry
from repro.core.registry import VARIANTS, run_variant
from repro.graphs import check_estimate, exact_apsp

from tests.helpers import make_rng

BUILTINS = (
    "exact",
    "uy90",
    "spanner-only",
    "small-diameter",
    "theorem11",
    "tradeoff",
    "large-bandwidth",
)


def small_er(seed: int = 7, n: int = 48):
    return erdos_renyi(n, 0.12, make_rng(seed))


class TestRegistry:
    def test_builtins_registered_in_order(self):
        assert VARIANTS.names() == BUILTINS

    def test_get_variant_unknown(self):
        with pytest.raises(ValueError, match="unknown variant"):
            VARIANTS.get("bogus")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register_variant(
                "exact",
                display_name="dup",
                summary="",
                factor_formula="1",
            )(lambda graph, rng, ledger, **p: None)

    def test_specs_carry_metadata(self):
        for spec in VARIANTS:
            assert spec.display_name
            assert spec.summary
            assert spec.factor_formula

    @pytest.mark.parametrize("name", BUILTINS)
    def test_completeness_every_variant_within_declared_bound(self, name):
        """Each registered variant solves a small ER graph soundly and
        within its declared factor bound (or its reported factor when the
        bound is instance-dependent)."""
        spec = VARIANTS.get(name)
        graph = small_er()
        exact = exact_apsp(graph)
        result = run_variant(
            name, graph, rng=make_rng(3), **spec.default_params
        )
        report = check_estimate(exact, result.estimate)
        assert report.sound, f"{name} underestimates"
        assert report.max_stretch <= result.factor + 1e-9
        declared = spec.bound(graph.n, **spec.default_params)
        if declared is not None:
            assert result.factor <= declared + 1e-9
        assert result.meta["variant"] == name
        assert result.meta["ledger"].total_rounds > 0

    def test_tradeoff_requires_t(self):
        with pytest.raises(ValueError, match="requires the parameter"):
            run_variant("tradeoff", small_er())

    def test_tradeoff_routes_through_apsp_tradeoff(self):
        """Regression: the legacy wrapper used to bypass ``apsp_tradeoff``,
        dropping the t validation and the tradeoff metadata."""
        graph = small_er()
        result = approximate_apsp(graph, rng=make_rng(0), variant="tradeoff", t=1)
        assert result.meta["t"] == 1
        assert "tradeoff_bound" in result.meta
        with pytest.raises(ValueError, match="t must be >= 1"):
            approximate_apsp(graph, rng=make_rng(0), variant="tradeoff", t=0)

    def test_directed_graph_rejected(self):
        from repro.graphs import WeightedGraph

        directed = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
        with pytest.raises(ValueError, match="undirected"):
            run_variant("theorem11", directed)


class TestSolverConfig:
    def test_defaults_valid(self):
        config = SolverConfig()
        assert config.variant == "theorem11"
        assert config.spec.display_name == "thm 1.1"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"variant": "bogus"},
            {"eps": 0.0},
            {"eps": -1.0},
            {"t": 0},
            {"variant": "tradeoff"},  # missing t
            {"bandwidth_words": 0},
            {"validation": "sometimes"},
            {"variant": "uy90", "extra_params": {"hop_paramter": 8}},  # typo
            {"extra_params": {"hop_parameter": 8}},  # not a theorem11 param
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_extra_params_checked_against_variant(self):
        config = SolverConfig(variant="uy90", extra_params={"hop_parameter": 8})
        assert config.params()["hop_parameter"] == 8
        with pytest.raises(ValueError, match="does not accept hop_paramter; "
                           "accepted: hop_parameter, oversample"):
            SolverConfig.from_dict(
                {"variant": "uy90", "extra_params": {"hop_paramter": 2}}
            )

    def test_rng_streams_are_deterministic_and_distinct(self):
        config = SolverConfig(seed=5)
        a0 = config.rng_for(0).integers(0, 2**31, 8)
        a0_again = config.rng_for(0).integers(0, 2**31, 8)
        a1 = config.rng_for(1).integers(0, 2**31, 8)
        assert np.array_equal(a0, a0_again)
        assert not np.array_equal(a0, a1)

    def test_dict_round_trip(self):
        config = SolverConfig(variant="tradeoff", t=2, seed=9,
                              validation="stretch")
        assert SolverConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "extra, named",
        [({"kernel": "tiled"}, "kernel"), ({"bogus": 1}, "bogus")],
    )
    def test_from_dict_rejects_unknown_keys(self, extra, named):
        data = SolverConfig(variant="exact").to_dict()
        data.update(extra)
        with pytest.raises(ValueError, match=f"unknown SolverConfig keys.*{named}"):
            SolverConfig.from_dict(data)

    def test_solver_rejects_config_plus_overrides(self):
        with pytest.raises(ValueError):
            ApspSolver(SolverConfig(), variant="exact")


class TestSolveMany:
    def make_graphs(self, count: int = 3, n: int = 40):
        rng = make_rng(2024)
        return [erdos_renyi(n, 6.0 / n, rng) for _ in range(count)]

    def test_matches_sequential_legacy_calls(self):
        """Acceptance: batch results are bit-identical to sequential
        ``approximate_apsp`` calls on the same RNG streams."""
        graphs = self.make_graphs()
        config = SolverConfig(variant="theorem11", seed=0)
        results = ApspSolver(config).solve_many(graphs)
        assert len(results) == len(graphs)
        for i, (graph, result) in enumerate(zip(graphs, results)):
            legacy = approximate_apsp(graph, rng=config.rng_for(i))
            assert np.array_equal(result.estimate, legacy.estimate), f"graph {i}"
            assert result.factor == legacy.factor
            assert result.stream == i
            assert result.total_rounds == legacy.meta["ledger"].total_rounds
            assert json.loads(json.dumps(result.summary()))  # serializable

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_executors_agree(self, executor):
        graphs = self.make_graphs(count=2, n=36)
        for variant in ("small-diameter", "theorem11"):
            solver = ApspSolver(SolverConfig(variant=variant, seed=11))
            baseline = solver.solve_many(graphs, executor="serial")
            got = solver.solve_many(graphs, executor=executor, max_workers=2)
            for a, b in zip(baseline, got):
                assert np.array_equal(a.estimate, b.estimate), variant
                assert a.total_rounds == b.total_rounds, variant

    def test_unknown_executor(self):
        with pytest.raises(ValueError, match="executor"):
            ApspSolver(SolverConfig()).solve_many(self.make_graphs(1), executor="gpu")

    def test_solve_is_stream_zero(self):
        graphs = self.make_graphs(count=2)
        solver = ApspSolver(SolverConfig(seed=3))
        assert np.array_equal(
            solver.solve(graphs[0]).estimate,
            solver.solve_many(graphs)[0].estimate,
        )

    def test_strict_validation_passes_on_sound_variant(self):
        solver = ApspSolver(SolverConfig(variant="exact", validation="strict"))
        result = solver.solve(self.make_graphs(1)[0])
        assert result.stretch is not None
        assert result.stretch.sound
        assert result.stretch.max_stretch <= 1.0 + 1e-9

    def test_wall_time_recorded(self):
        result = ApspSolver(SolverConfig(variant="exact")).solve(
            self.make_graphs(1)[0]
        )
        assert result.wall_time_s > 0.0


class TestApspResultJson:
    def solve_one(self) -> ApspResult:
        graph = erdos_renyi(36, 0.15, make_rng(1))
        return ApspSolver(
            SolverConfig(variant="theorem11", seed=4, validation="stretch")
        ).solve(graph)

    def test_round_trip_full(self):
        result = self.solve_one()
        clone = ApspResult.from_json(result.to_json())
        assert np.array_equal(clone.estimate, result.estimate)
        assert clone.factor == result.factor
        assert clone.variant == result.variant
        assert clone.seed == result.seed
        assert clone.total_rounds == result.total_rounds
        assert clone.ledger.rounds_by_phase() == result.ledger.rounds_by_phase()
        assert clone.stretch == result.stretch

    def test_round_trip_without_estimate(self):
        result = self.solve_one()
        clone = ApspResult.from_json(result.to_json(include_estimate=False))
        assert clone.n == result.n
        assert clone.factor == result.factor
        assert np.all(np.diag(clone.estimate) == 0)

    def test_json_is_strict(self):
        """No NaN/Infinity literals — downstream parsers reject them."""
        payload = self.solve_one().to_json()
        json.loads(payload, parse_constant=lambda _: pytest.fail("non-strict JSON"))

    def test_summary_omits_matrix(self):
        summary = self.solve_one().summary()
        assert "estimate" not in summary
        assert summary["rounds"] > 0
        assert summary["stretch"]["max_stretch"] >= 1.0

    def test_b64_encoding_round_trips(self):
        """The compact encoding is bit-exact, including inf entries."""
        result = self.solve_one()
        result.estimate[0, 1] = np.inf  # force a hole through the codec
        payload = result.to_json(matrix_encoding="b64")
        clone = ApspResult.from_json(payload)
        assert np.array_equal(clone.estimate, result.estimate)
        assert clone.factor == result.factor
        record = json.loads(payload)["estimate"]
        assert record["encoding"] == "b64"
        assert record["shape"] == [result.n, result.n]

    def test_b64_encoding_is_compact_and_strict(self):
        result = self.solve_one()
        # full-precision floats — the realistic large-n payload where the
        # list encoding burns ~18 chars per entry vs b64's constant ~10.7
        result.estimate *= np.pi
        compact = result.to_json(matrix_encoding="b64")
        verbose = result.to_json(matrix_encoding="list")
        assert len(compact) < len(verbose)
        json.loads(compact, parse_constant=lambda _: pytest.fail("non-strict JSON"))

    def test_unknown_matrix_encoding_rejected(self):
        with pytest.raises(ValueError):
            self.solve_one().to_dict(matrix_encoding="pickle")

    @pytest.mark.parametrize("field, value, match", [
        ("dtype", "<i8", "not the declared"),
        ("shape", [37, 36], "bytes; shape"),
    ])
    def test_tampered_b64_record_rejected(self, field, value, match):
        payload = json.loads(self.solve_one().to_json(matrix_encoding="b64"))
        payload["estimate"][field] = value
        with pytest.raises(ArtifactIntegrityError, match=match):
            ApspResult.from_json(json.dumps(payload))

    @pytest.mark.parametrize("encoding", ["list", "b64"])
    def test_declared_n_must_match_estimate(self, encoding):
        payload = json.loads(self.solve_one().to_json(matrix_encoding=encoding))
        payload["n"] = 99
        with pytest.raises(ArtifactIntegrityError, match="declares n = 99"):
            ApspResult.from_json(json.dumps(payload))

    @pytest.mark.parametrize("encoding", ["list", "b64"])
    def test_negative_estimate_entry_rejected(self, encoding):
        result = self.solve_one()
        result.estimate[2, 5] = -4.0
        with pytest.raises(ArtifactIntegrityError, match=r"estimate\[2, 5\] = -4.0"):
            ApspResult.from_json(result.to_json(matrix_encoding=encoding))

    def test_ragged_list_row_rejected(self):
        payload = json.loads(self.solve_one().to_json(matrix_encoding="list"))
        payload["estimate"][3] = payload["estimate"][3][:-1]
        with pytest.raises(ArtifactIntegrityError, match="malformed list matrix"):
            ApspResult.from_json(json.dumps(payload))


class TestRegistrySweep:
    def test_registry_algorithms_enumerate(self):
        from repro.analysis import registry_algorithms

        algorithms = registry_algorithms()
        assert tuple(algorithms) == BUILTINS

    def test_registry_algorithms_unknown_name(self):
        from repro.analysis import registry_algorithms

        with pytest.raises(ValueError, match="unknown variant"):
            registry_algorithms(variants=["bogus"])

    def test_run_registry_sweep_subset(self):
        from repro.analysis import run_registry_sweep

        workloads = {
            "er": lambda rng: erdos_renyi(36, 0.15, rng),
        }
        sweeps = run_registry_sweep(
            workloads, seeds=[0, 1], variants=["exact", "small-diameter"]
        )
        assert set(sweeps) == {"exact", "small-diameter"}
        for result in sweeps.values():
            assert len(result.cases) == 2
            assert result.summaries[0].all_sound
