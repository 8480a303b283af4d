"""The four benchmark workloads: two solves and two serving loads.

Every input comes from the ``--seed`` argument through
``np.random.SeedSequence(seed, spawn_key=(stream, ...))``: stream 0
holds the graphs, stream 1 the client endpoints and requests.  The
program only ever sees the generated graphs and requests.

A *pass* runs one workload once and returns a :class:`Pass`.  The
untraced pass gives the end-to-end metrics; the traced run repeats the
pass with a :class:`~layers.LayerTracer` installed and reads the layer
spans back out of it.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import ApspSolver, SolverConfig, erdos_renyi
from repro.graphs.distances import exact_apsp
from repro.graphs.generators import heavy_tail_weights
from repro.graphs.validation import check_estimate
from repro.serve import OracleService, route_batch

#: Set-up is repeated this many times per pass; setup_s is the median.
SETUP_REPS = 5
#: A solve-* pass solves at least this many graphs, however long they
#: take.  ``rounds`` and ``max_stretch`` come from exactly these graphs,
#: so they do not depend on how many solves fit in ``--seconds``.
MIN_SOLVES = 2
#: A serving load runs in epochs of about this length.  Answers are
#: checked between epochs, outside the timed window.
EPOCH_S = 1.5
#: ``k`` of every served ``k_nearest`` request.
KNN_K = 16
#: Each client's requests are generated lazily in blocks of this size.
REQUEST_BLOCK = 512
#: Query chunk for the reference ``route_batch`` (bounds its bitmap).
ROUTE_CHUNK = 4096

GRAPH_STREAM = 0
REQUEST_STREAM = 1

ENDPOINTS = ("distance", "route", "k_nearest")


@dataclass(frozen=True)
class SolveWorkload:
    """One registered variant, solved on a fresh seeded graph each time."""

    name: str
    variant: str
    n: int
    degree: float  # Erdős–Rényi p = degree / n
    heavy_tail: bool


@dataclass(frozen=True)
class ServeWorkload:
    """Closed-loop clients against a warmed ``OracleService``."""

    name: str
    clients: int
    mix: Tuple[Tuple[str, int], ...]  # (endpoint, weight)
    n: int = 1024
    degree: float = 4.0
    variant: str = "theorem11"
    heavy_tail: bool = False


WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        SolveWorkload("solve-thm11", "theorem11", 2048, 4.0, False),
        SolveWorkload("solve-thm81", "large-bandwidth", 1024, 8.0, True),
        ServeWorkload("serve-light", 8, (("distance", 1),)),
        ServeWorkload("serve-heavy", 256, (("route", 3), ("k_nearest", 1))),
    )
}


def make_graph(workload: Any, seed: int, index: int) -> Any:
    """Graph ``index`` of a run, from ``SeedSequence(seed, (0, index))``."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(GRAPH_STREAM, index))
    )
    weights = heavy_tail_weights() if workload.heavy_tail else None
    return erdos_renyi(workload.n, workload.degree / workload.n, rng,
                       weights=weights)


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@dataclass
class SolveCheck:
    """What the benchmark keeps of one solve (never the matrix itself)."""

    seconds: float
    ok: bool
    rounds: Optional[int] = None
    max_stretch: Optional[float] = None
    digest: Optional[str] = None
    wall_time_s: float = 0.0
    ledger: Any = None


def check_solve(seconds: float, result: Any, graph: Any) -> SolveCheck:
    """Check a timed solve against a scipy reference computed afterwards.

    ``result is None`` records a solve that raised.  A solve passes when
    no pair is underestimated and the stretch is within its ``factor``.
    """
    if result is None:
        return SolveCheck(seconds=seconds, ok=False)
    report = check_estimate(exact_apsp(graph), result.estimate)
    return SolveCheck(
        seconds=seconds,
        ok=report.sound and report.max_stretch <= result.factor + 1e-9,
        rounds=result.total_rounds,
        max_stretch=report.max_stretch,
        digest=digest(result.estimate),
        wall_time_s=result.wall_time_s,
        ledger=result.ledger,
    )


@dataclass
class Epoch:
    """One timed stretch of a serving load."""

    wall: float
    #: Per request, in completion order: its latency (``inf`` if it
    #: failed) and when it completed, in seconds from the epoch's start.
    latencies: List[float] = field(default_factory=list)
    finished: List[float] = field(default_factory=list)

    def windows(self, width: float) -> List[List[float]]:
        """The latencies of the requests completed in each full window."""
        out: List[List[float]] = [[] for _ in range(int(self.wall / width))]
        for latency, at in zip(self.latencies, self.finished):
            index = int(at / width)
            if index < len(out):
                out[index].append(latency)
        return out


@dataclass
class Pass:
    """Measurements of one pass over a workload."""

    setup_seconds: List[float] = field(default_factory=list)
    solves: List[SolveCheck] = field(default_factory=list)
    epochs: List[Epoch] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    routes: int = 0
    delivered: int = 0
    batchers: Dict[str, Any] = field(default_factory=dict)
    oracle_key: Optional[str] = None
    oracle_mb: float = 0.0
    #: The process's ``getrusage`` high-water mark: at the end of a
    #: solve-* pass, before the load of a serve-* pass.
    peak_rss_mb: float = 0.0

    @property
    def solve_seconds(self) -> List[float]:
        return [s.seconds for s in self.solves]

    @property
    def latencies(self) -> List[float]:
        return [x for epoch in self.epochs for x in epoch.latencies]

    @property
    def load_wall(self) -> float:
        return sum(epoch.wall for epoch in self.epochs)

    def windows(self, width: float) -> List[List[float]]:
        """Every epoch's full windows of ``width`` seconds, in order."""
        return [w for epoch in self.epochs for w in epoch.windows(width)]

    @property
    def digests(self) -> List[Optional[str]]:
        return [s.digest for s in self.solves]


# ---------------------------------------------------------------------- #
# Solve workloads
# ---------------------------------------------------------------------- #


def run_solve_pass(workload: SolveWorkload, seed: int, seconds: float,
                   tracer: Any = None) -> Pass:
    """Set up ``SETUP_REPS`` times, then solve until ``seconds`` elapse.

    Solve ``i`` runs on graph ``i``, so the run's medians span graphs.
    """
    out = Pass()
    for index in range(SETUP_REPS):
        start = time.perf_counter()
        make_graph(workload, seed, index)
        solver = ApspSolver(SolverConfig(variant=workload.variant, seed=seed))
        out.setup_seconds.append(time.perf_counter() - start)
    busy = 0.0
    while busy < seconds or len(out.solves) < MIN_SOLVES:
        graph = make_graph(workload, seed, len(out.solves))
        gc.collect()
        if tracer is not None:
            tracer.window = "solve"
        start = time.perf_counter()
        try:
            result = solver.solve(graph)
        except Exception:  # noqa: BLE001 - a raising solve is a counted failure
            result = None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.window = None
        out.solves.append(check_solve(elapsed, result, graph))
        busy += elapsed
    out.attempted = len(out.solves)
    out.failed = sum(not s.ok for s in out.solves)
    out.peak_rss_mb = peak_rss_mb()
    return out


# ---------------------------------------------------------------------- #
# Serve workloads
# ---------------------------------------------------------------------- #


class ClientStream:
    """Client ``c``'s endless, seeded request sequence: ``(a, b)`` pairs.

    Blocks of :data:`REQUEST_BLOCK` requests are drawn on demand from
    ``SeedSequence(seed, spawn_key=(REQUEST_STREAM, c, block))``, so a
    client's ``j``-th request is the same however long the run lasts.
    """

    def __init__(self, seed: int, client: int, n: int) -> None:
        self.seed = seed
        self.client = client
        self.n = n
        self._block = -1
        self._rows: List[Tuple[int, int]] = []

    def get(self, index: int) -> Tuple[int, int]:
        block, offset = divmod(index, REQUEST_BLOCK)
        if block != self._block:
            rng = np.random.default_rng(np.random.SeedSequence(
                self.seed, spawn_key=(REQUEST_STREAM, self.client, block)))
            pairs = rng.integers(0, self.n, (REQUEST_BLOCK, 2))
            self._rows = [tuple(row) for row in pairs.tolist()]
            self._block = block
        return self._rows[offset]


def client_endpoints(workload: "ServeWorkload", seed: int) -> List[int]:
    """Each client's endpoint code: the mix's shares, in seeded order."""
    total = sum(weight for _, weight in workload.mix)
    codes: List[int] = []
    for name, weight in workload.mix:
        codes += [ENDPOINTS.index(name)] * (workload.clients * weight // total)
    codes += [codes[-1]] * (workload.clients - len(codes))
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(REQUEST_STREAM,)))
    return [codes[i] for i in rng.permutation(len(codes)).tolist()]


_FAILED = object()


def _verify(oracle: Any,
            answers: List[Tuple[int, int, int, Any]]) -> Tuple[int, int, int]:
    """Failures among ``answers`` versus direct oracle calls.

    Returns ``(failed, routes, delivered)``.  A failed request (raised)
    carries the ``_FAILED`` sentinel and never matches.
    """
    failed = routes = delivered = 0
    by_code: Dict[int, List[Tuple[int, int, Any]]] = {}
    for code, a, b, answer in answers:
        by_code.setdefault(code, []).append((a, b, answer))
    for code, items in by_code.items():
        a = np.array([item[0] for item in items], dtype=np.int64)
        b = np.array([item[1] for item in items], dtype=np.int64)
        got = [item[2] for item in items]
        if ENDPOINTS[code] == "distance":
            want = oracle.query_many(a, b).tolist()
            failed += sum(g is _FAILED or g != w for g, w in zip(got, want))
        elif ENDPOINTS[code] == "route":
            want = route_batch(oracle, a, b, chunk_queries=ROUTE_CHUNK).to_records()
            failed += sum(g is _FAILED or g != w for g, w in zip(got, want))
            routes += len(want)
            delivered += sum(w["delivered"] for w in want)
        else:
            ids, dists = oracle.k_nearest(KNN_K, sources=a)
            for g, i_row, d_row in zip(got, ids.tolist(), dists.tolist()):
                failed += (g is _FAILED or g["ids"] != i_row
                           or g["dists"] != d_row)
    return failed, routes, delivered


async def _drive(service: OracleService, handle: str, oracle: Any,
                 workload: ServeWorkload, seed: int, seconds: float,
                 out: Pass, tracer: Any) -> None:
    """Closed loop: one task per client, each awaiting one request at a time."""
    calls = {
        0: lambda a, b: service.distance(handle, a, b),
        1: lambda a, b: service.route(handle, a, b),
        2: lambda a, b: service.k_nearest(handle, a, KNN_K),
    }
    streams = [ClientStream(seed, c, workload.n) for c in range(workload.clients)]
    issued = [0] * workload.clients
    epochs = max(1, round(seconds / EPOCH_S))
    epoch_len = seconds / epochs
    for _ in range(epochs):
        answers: List[Tuple[int, int, int, Any]] = []
        epoch = Epoch(wall=0.0)

        async def client(c: int, code: int) -> None:
            call = calls[code]
            while time.perf_counter() < deadline:
                a, b = streams[c].get(issued[c])
                issued[c] += 1
                start = time.perf_counter()
                try:
                    answer = await call(a, b)
                except Exception:  # noqa: BLE001 - counted, never raised
                    answer = _FAILED
                    latency = float("inf")
                else:
                    latency = time.perf_counter() - start
                epoch.latencies.append(latency)
                epoch.finished.append(time.perf_counter() - began)
                answers.append((code, a, b, answer))

        if tracer is not None:
            tracer.window = "load"
        began = time.perf_counter()
        deadline = began + epoch_len
        await asyncio.gather(*(
            client(c, code)
            for c, code in enumerate(client_endpoints(workload, seed))
        ))
        epoch.wall = time.perf_counter() - began
        out.epochs.append(epoch)
        if tracer is not None:
            tracer.window = None
        failed, routes, delivered = _verify(oracle, answers)
        out.attempted += len(answers)
        out.failed += failed
        out.routes += routes
        out.delivered += delivered


def run_serve_pass(workload: ServeWorkload, seed: int, seconds: float,
                   tracer: Any = None) -> Pass:
    """Warm ``SETUP_REPS`` fresh services, then load the last one.

    Set-up ``i`` solves and warms graph ``i``; the last one is served.
    """
    out = Pass()
    service: Optional[OracleService] = None
    try:
        for index in range(SETUP_REPS):
            if service is not None:
                # Free the previous rep's oracle before the next one, so
                # the high-water mark does not depend on when gc runs.
                service.close()
                service = result = None
                gc.collect()
            if tracer is not None:
                tracer.window = "solve"
            start = time.perf_counter()
            graph = make_graph(workload, seed, index)
            solve_start = time.perf_counter()
            result = ApspSolver(
                SolverConfig(variant=workload.variant, seed=seed)
            ).solve(graph)
            solve_seconds = time.perf_counter() - solve_start
            service = OracleService()
            handle = service.warm(graph, workload.variant, seed, result=result)
            out.setup_seconds.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.window = None
            out.solves.append(check_solve(solve_seconds, result, graph))
        out.attempted = len(out.solves)
        out.failed = sum(not s.ok for s in out.solves)
        oracle = service.oracle(handle)
        out.oracle_key = oracle.content_key()
        out.oracle_mb = oracle.nbytes / 2**20
        # Measured before the load: the load's high-water mark is set by
        # the answers held for checking and by which worker thread's
        # malloc arena served which batch, and moved by a quarter from
        # run to run.
        out.peak_rss_mb = peak_rss_mb()
        asyncio.run(_drive(service, handle, oracle, workload, seed, seconds,
                           out, tracer))
        out.batchers = service.snapshot()["batchers"]
    finally:
        if service is not None:
            service.close()
    return out


def run_pass(workload: Any, seed: int, seconds: float, tracer: Any = None) -> Pass:
    if isinstance(workload, SolveWorkload):
        return run_solve_pass(workload, seed, seconds, tracer)
    return run_serve_pass(workload, seed, seconds, tracer)


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
