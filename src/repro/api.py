"""Unified solver facade: typed configuration, batch execution, rich results.

This is the service-facing API layered on the variant registry
(:mod:`repro.core.registry`):

* :class:`SolverConfig` — a validated, immutable description of *how* to
  solve (variant, eps, t, seed, bandwidth, validation mode);
* :class:`ApspSolver` — the facade: ``solve(graph)`` for one instance,
  ``solve_many(graphs)`` for concurrent batch execution with per-graph
  deterministic RNG streams;
* :class:`ApspResult` — an :class:`~repro.core.results.Estimate` extended
  with the round ledger, wall-clock timing, an optional measured-stretch
  certificate, and ``to_json()``/``from_json()`` for downstream services.

Determinism contract: ``solve_many([g0, g1, ...])`` with seed ``s`` gives
graph ``i`` the RNG stream ``np.random.SeedSequence(s, spawn_key=(i,))``,
regardless of executor or worker count.  Running the legacy
:func:`repro.approximate_apsp` sequentially with the same streams produces
bit-identical estimates — both paths dispatch through
:func:`repro.core.registry.run_variant`.
"""

from __future__ import annotations

import base64
import json
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from .cclique.accounting import LedgerEntry, RoundLedger
from .core.registry import VariantSpec, get_variant, run_variant
from .core.results import Estimate
from .graphs.distances import cached_exact_apsp
from .graphs.graph import WeightedGraph
from .graphs.validation import ApproximationReport, check_estimate

#: Recognised validation modes for :class:`SolverConfig`.
VALIDATION_MODES = ("none", "stretch", "strict")

#: Recognised executors for :meth:`ApspSolver.solve_many`.
EXECUTORS = ("serial", "thread", "process")

#: Recognised estimate-matrix encodings for :meth:`ApspResult.to_dict`.
MATRIX_ENCODINGS = ("list", "b64")


@dataclass(frozen=True)
class SolverConfig:
    """Immutable, validated solver configuration.

    Parameters
    ----------
    variant:
        A registered variant name (see ``repro.core.registry``).
    eps:
        Approximation slack for the constant-factor variants.
    t:
        Theorem 1.2 tradeoff parameter (required for ``variant="tradeoff"``).
    seed:
        Base seed; per-graph streams are spawned from it deterministically.
    bandwidth_words:
        Words per message of the ledger's model variant (1 = standard
        Congested Clique).
    validation:
        ``"none"`` — trust the factor; ``"stretch"`` — also compute exact
        distances (memoised across variants by the content-hash oracle
        cache) and attach a measured-stretch certificate; ``"strict"`` —
        additionally raise if the certificate violates the declared
        factor.
    extra_params:
        Additional variant-specific keyword parameters (e.g.
        ``{"hop_parameter": 8}`` for UY90); unknown keys are dropped by
        the registry's parameter resolution.
    """

    variant: str = "theorem11"
    eps: float = 0.1
    t: Optional[int] = None
    seed: int = 0
    bandwidth_words: int = 1
    validation: str = "none"
    extra_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        spec = get_variant(self.variant)  # raises ValueError on unknown
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.t is not None and self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if "t" in spec.required_params and self.t is None:
            raise ValueError(f"variant={self.variant!r} requires the parameter t")
        if int(self.bandwidth_words) < 1:
            raise ValueError("bandwidth_words must be >= 1")
        if self.validation not in VALIDATION_MODES:
            raise ValueError(
                f"validation must be one of {VALIDATION_MODES}, "
                f"got {self.validation!r}"
            )

    @property
    def spec(self) -> VariantSpec:
        """The registered spec this config targets."""
        return get_variant(self.variant)

    def params(self) -> Dict[str, Any]:
        """Variant parameters to forward to the registry dispatch."""
        merged: Dict[str, Any] = {"eps": self.eps, "t": self.t}
        merged.update(self.extra_params)
        return merged

    def rng_for(self, stream: int = 0) -> np.random.Generator:
        """The deterministic RNG for batch stream ``stream``."""
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(int(stream),))
        )

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["extra_params"] = dict(self.extra_params)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolverConfig":
        """Rebuild a config; ``ValueError`` naming any unknown keys."""
        data = dict(data)
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown SolverConfig keys: {unknown}")
        return cls(**data)


@dataclass
class ApspResult(Estimate):
    """An :class:`Estimate` plus execution context, ready for services.

    Inherits ``estimate``/``factor``/``meta`` (the ledger stays in
    ``meta["ledger"]``, as the legacy API promises) and adds the variant
    name, wall-clock time, the RNG stream index, and — when the config
    requested validation — a measured-stretch certificate.
    """

    variant: str = ""
    wall_time_s: float = 0.0
    seed: Optional[int] = None
    stream: int = 0
    stretch: Optional[ApproximationReport] = None

    @property
    def ledger(self) -> Optional[RoundLedger]:
        return self.meta.get("ledger")

    @property
    def total_rounds(self) -> Optional[int]:
        ledger = self.ledger
        return None if ledger is None else ledger.total_rounds

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable summary without the O(n^2) estimate matrix."""
        ledger = self.ledger
        return {
            "variant": self.variant,
            "n": self.n,
            "factor": float(self.factor),
            "wall_time_s": float(self.wall_time_s),
            "seed": self.seed,
            "stream": int(self.stream),
            "rounds": None if ledger is None else int(ledger.total_rounds),
            "rounds_by_phase": (
                None if ledger is None else dict(ledger.rounds_by_phase())
            ),
            "seconds_by_phase": (
                None if ledger is None else dict(ledger.seconds_by_phase())
            ),
            "stretch": None if self.stretch is None else asdict(self.stretch),
            "meta": _jsonable({k: v for k, v in self.meta.items() if k != "ledger"}),
        }

    def to_dict(
        self,
        include_estimate: bool = True,
        matrix_encoding: str = "list",
    ) -> Dict[str, Any]:
        """Full serializable payload, optionally with the estimate matrix.

        ``matrix_encoding="list"`` emits the matrix as nested Python lists
        (human-readable, ``inf`` → ``null``) — slow and huge at n ≥ 512,
        where full-precision floats cost ~18 characters each; ``"b64"``
        emits a compact base64 record of the raw float64 bytes (a constant
        ~10.7 characters per entry and an order of magnitude faster to
        encode).  :meth:`from_json` understands both.
        """
        if matrix_encoding not in MATRIX_ENCODINGS:
            raise ValueError(
                f"matrix_encoding must be one of {MATRIX_ENCODINGS}, "
                f"got {matrix_encoding!r}"
            )
        out = self.summary()
        ledger = self.ledger
        out["ledger"] = None if ledger is None else _ledger_to_dict(ledger)
        if include_estimate:
            out["estimate"] = (
                _matrix_to_b64(self.estimate)
                if matrix_encoding == "b64"
                else _matrix_to_jsonable(self.estimate)
            )
        return out

    def to_json(
        self,
        include_estimate: bool = True,
        matrix_encoding: str = "list",
        **dumps_kwargs: Any,
    ) -> str:
        """Serialize to JSON (``inf`` entries encoded as ``null``)."""
        return json.dumps(
            self.to_dict(
                include_estimate=include_estimate,
                matrix_encoding=matrix_encoding,
            ),
            **dumps_kwargs,
        )

    @classmethod
    def from_json(cls, payload: str) -> "ApspResult":
        """Rebuild a result (estimate, ledger, certificate) from JSON."""
        data = json.loads(payload)
        meta = dict(data.get("meta") or {})
        ledger_data = data.get("ledger")
        if ledger_data is not None:
            meta["ledger"] = _ledger_from_dict(ledger_data)
        estimate_rows = data.get("estimate")
        if estimate_rows is None:
            estimate = np.full((data["n"], data["n"]), np.inf)
            np.fill_diagonal(estimate, 0.0)
        elif isinstance(estimate_rows, Mapping):
            estimate = _matrix_from_b64(estimate_rows)
        else:
            estimate = _matrix_from_jsonable(estimate_rows)
        stretch = data.get("stretch")
        return cls(
            estimate=estimate,
            factor=float(data["factor"]),
            meta=meta,
            variant=data.get("variant", ""),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            seed=data.get("seed"),
            stream=int(data.get("stream", 0)),
            stretch=None if stretch is None else ApproximationReport(**stretch),
        )

    def oracle(self, graph: WeightedGraph, **meta: Any) -> "Any":
        """Assemble a :class:`repro.serve.DistanceOracle` from this result.

        The query-plane artifact: the estimate matrix plus a vectorized
        next-hop table over ``graph``, ready for ``query_many`` /
        ``route_batch`` / persistence.  ``graph`` must be the instance
        this result was solved on; extra keyword arguments are merged
        into the oracle's metadata.
        """
        from .serve import DistanceOracle  # local import: serve layers on api

        return DistanceOracle.build(graph, self, meta=meta or None)


class ApspSolver:
    """The solver facade: one config, any number of graphs.

    Examples
    --------
    >>> solver = ApspSolver(SolverConfig(variant="theorem11", seed=0))
    >>> result = solver.solve(graph)            # doctest: +SKIP
    >>> results = solver.solve_many([g1, g2])   # doctest: +SKIP
    """

    def __init__(self, config: Optional[SolverConfig] = None, **overrides: Any):
        if config is None:
            config = SolverConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a SolverConfig or keyword overrides")
        self.config = config

    def solve(self, graph: WeightedGraph, stream: int = 0) -> ApspResult:
        """Solve one graph on RNG stream ``stream`` (default: stream 0).

        ``solve(g)`` is exactly ``solve_many([g])[0]``.
        """
        return _solve_one(self.config, graph, stream)

    def solve_many(
        self,
        graphs: Sequence[WeightedGraph],
        executor: str = "thread",
        max_workers: Optional[int] = None,
    ) -> List[ApspResult]:
        """Solve a batch concurrently; results keep input order.

        Graph ``i`` always runs on RNG stream ``i``, so the output is
        independent of the executor, worker count, and completion order.
        """
        graphs = list(graphs)
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        tasks = [(self.config, g, i) for i, g in enumerate(graphs)]
        if executor == "serial" or len(graphs) <= 1:
            return [_solve_task(task) for task in tasks]
        pool_cls = ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
        with pool_cls(max_workers=max_workers) as pool:
            return list(pool.map(_solve_task, tasks))


def _solve_one(
    config: SolverConfig,
    graph: WeightedGraph,
    stream: int,
) -> ApspResult:
    """Run one (config, graph, stream) task — shared by all executors."""
    rng = config.rng_for(stream)
    ledger = RoundLedger(graph.n, bandwidth_words=config.bandwidth_words)
    start = time.perf_counter()
    estimate = run_variant(
        config.variant, graph, rng=rng, ledger=ledger, **config.params()
    )
    wall_time = time.perf_counter() - start
    stretch: Optional[ApproximationReport] = None
    if config.validation != "none":
        report = check_estimate(cached_exact_apsp(graph), estimate.estimate)
        stretch = report
        if config.validation == "strict":
            if not report.sound:
                raise AssertionError(
                    f"variant={config.variant!r}: estimate underestimates "
                    f"{report.underestimates} of {report.pairs_checked} pairs"
                )
            if report.max_stretch > estimate.factor + 1e-9:
                raise AssertionError(
                    f"variant={config.variant!r}: measured stretch "
                    f"{report.max_stretch:.4f} exceeds the factor "
                    f"{estimate.factor:.4f}"
                )
    return ApspResult(
        estimate=estimate.estimate,
        factor=estimate.factor,
        meta=estimate.meta,
        variant=config.variant,
        wall_time_s=wall_time,
        seed=config.seed,
        stream=stream,
        stretch=stretch,
    )


def _solve_task(payload) -> ApspResult:
    """Top-level adapter so process pools can pickle the work item."""
    config, graph, stream = payload
    return _solve_one(config, graph, stream)


# --------------------------------------------------------------------- #
# JSON helpers
# --------------------------------------------------------------------- #


def _matrix_to_jsonable(matrix: np.ndarray) -> List[List[Optional[float]]]:
    """Nested lists with ``inf`` -> ``None`` (strict-JSON friendly)."""
    dense = np.asarray(matrix, dtype=np.float64)
    return [
        [None if not np.isfinite(x) else float(x) for x in row] for row in dense
    ]


def _matrix_from_jsonable(rows: List[List[Optional[float]]]) -> np.ndarray:
    out = np.array(
        [[np.inf if x is None else float(x) for x in row] for row in rows],
        dtype=np.float64,
    )
    return out


def _matrix_to_b64(matrix: np.ndarray, dtype: str = "<f8") -> Dict[str, Any]:
    """Compact encoding: raw little-endian bytes, base64-wrapped.

    ``inf`` needs no special casing — it round-trips through the binary
    representation exactly, unlike the strict-JSON ``list`` encoding.
    ``dtype`` selects the stored element type (``"<f8"`` for distance
    matrices, ``"<i8"`` for next-hop tables); the record carries it, so
    :func:`_matrix_from_b64` restores the array losslessly.
    """
    dense = np.ascontiguousarray(matrix, dtype=np.dtype(dtype))
    return {
        "encoding": "b64",
        "dtype": dense.dtype.str,
        "shape": list(dense.shape),
        "data": base64.b64encode(dense.tobytes()).decode("ascii"),
    }


def _matrix_from_b64(record: Mapping[str, Any]) -> np.ndarray:
    if record.get("encoding") != "b64":
        raise ValueError(f"unknown matrix encoding: {record.get('encoding')!r}")
    raw = base64.b64decode(record["data"])
    out = np.frombuffer(raw, dtype=np.dtype(record.get("dtype", "<f8")))
    return out.reshape(tuple(int(d) for d in record["shape"])).copy()


def _ledger_to_dict(ledger: RoundLedger) -> Dict[str, Any]:
    return {
        "n": ledger.n,
        "bandwidth_words": ledger.bandwidth_words,
        "phase_seconds": dict(ledger.phase_seconds),
        "timed_seconds": ledger.timed_seconds,
        "entries": [
            {
                "phase": e.phase,
                "rounds": e.rounds,
                "bandwidth_words": e.bandwidth_words,
                "detail": e.detail,
            }
            for e in ledger.entries
        ],
    }


def _ledger_from_dict(data: Mapping[str, Any]) -> RoundLedger:
    ledger = RoundLedger(int(data["n"]), bandwidth_words=int(data["bandwidth_words"]))
    ledger.phase_seconds = {
        str(k): float(v) for k, v in (data.get("phase_seconds") or {}).items()
    }
    ledger.timed_seconds = float(data.get("timed_seconds", 0.0))
    for entry in data.get("entries", []):
        ledger.entries.append(
            LedgerEntry(
                phase=entry["phase"],
                rounds=int(entry["rounds"]),
                bandwidth_words=int(entry["bandwidth_words"]),
                detail=entry.get("detail", ""),
            )
        )
    return ledger


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of pipeline metadata to JSON-safe values."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        f = float(value)
        return f if np.isfinite(f) else None
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    return repr(value)


__all__ = [
    "ApspResult",
    "ApspSolver",
    "SolverConfig",
    "EXECUTORS",
    "VALIDATION_MODES",
]
