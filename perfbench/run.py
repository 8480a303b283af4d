#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve-thm11 --seed 1 --seconds 12 --trace 0

``--trace 0`` runs the workload once and prints every end-to-end
metric.  ``--trace 1`` runs it twice with the same seed, first plain
and then with per-layer timers installed (see ``layers.py``), prints
every per-layer metric, and writes the spans to
``.perfbench_out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the host fingerprint and the run's details (sample counts,
output digests, batcher stats).  Metric names and units are the ones
declared in ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _git_sha(root: Path) -> Optional[str]:
    """HEAD's commit from the ``.git`` directory, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


INF = float("inf")
#: serve-* latency and throughput are medians over windows this long, so
#: a stall of the host that hits a minority of them does not move them.
WINDOW_S = 0.25


def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(workload: Any, run: Any, import_s: float) -> Dict[str, float]:
    """Every end-to-end metric of one untraced pass."""
    from workloads import MIN_SOLVES, SolveWorkload, median

    fixed = run.solves  # serve-*: one solve per set-up, a fixed count
    if isinstance(workload, SolveWorkload):
        fixed = run.solves[:MIN_SOLVES]
        # The latency of a solve-* run is its median solve.
        p50 = median(run.solve_seconds)
        qps = 1.0 / p50
    else:
        windows = run.windows(WINDOW_S)
        p50 = median([_percentile(lat, 50) for lat in windows if lat])
        qps = median([sum(x != INF for x in lat) / WINDOW_S for lat in windows])
    return {
        "solve_s": median(run.solve_seconds),
        "rounds": median([s.rounds for s in fixed if s.ok]),
        "max_stretch": median([s.max_stretch for s in fixed if s.ok]),
        "p50_ms": p50 * 1e3,
        "qps": qps,
        "setup_s": import_s + median(run.setup_seconds),
        "peak_rss_mb": run.peak_rss_mb,
    }


def _phase(ledger: Any, phase: str) -> float:
    """Seconds of ``phase`` wherever it is nested in ``ledger``."""
    return sum(
        seconds for name, seconds in ledger.phase_seconds.items()
        if name == phase or name.endswith("/" + phase)
    )


def _subtree(ledger: Any, prefix: str) -> float:
    """Seconds under ``prefix/``, summed at its shallowest depth."""
    names = [k for k in ledger.phase_seconds if k.startswith(prefix + "/")]
    if not names:
        return 0.0
    depth = min(name.count("/") for name in names)
    return sum(ledger.phase_seconds[k] for k in names if k.count("/") == depth)


def per_layer(workload: Any, plain: Any, traced: Any, tracer: Any,
              import_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass.

    Solve layers are per solve (the warm-up solves on serve-*); serve
    layers are totals over the load window.
    """
    from workloads import SolveWorkload, median

    solves = [s for s in traced.solves if s.ok]
    count = float(len(solves))
    ledgers = [s.ledger for s in solves]
    spans = tracer.totals("solve")
    load = tracer.totals("load")

    def per_solve(layer: str, key: str) -> float:
        return spans[layer][key] / count if layer in spans else 0.0

    def phase(*names: str) -> float:
        return sum(_phase(led, name) for led in ledgers for name in names) / count

    engine = [load[name] for name in ("serve.query", "serve.route", "serve.knn")
              if name in load]
    engine_s = sum(e["seconds"] for e in engine)
    waits = tracer.queue_waits.get("load", [])
    stats = list(traced.batchers.values())
    flushes = sum(s["flushes"] for s in stats)
    if isinstance(workload, SolveWorkload):
        overhead = median(traced.solve_seconds) / median(plain.solve_seconds) - 1
    else:
        plain_qps = len(plain.latencies) / plain.load_wall
        traced_qps = len(traced.latencies) / traced.load_wall
        overhead = plain_qps / traced_qps - 1
    return {
        "core.knearest_s": phase("thm1.1/k-nearest"),
        "core.skeleton_s": phase("thm1.1/skeleton", "thm8.1/skeleton"),
        "core.inner_s": sum(_subtree(led, "thm1.1/simulated-G_S")
                            for led in ledgers) / count,
        "core.extend_s": phase("thm1.1/extend"),
        "core.bootstrap_s": phase("thm8.1/bootstrap"),
        "core.scaled_solves_s": phase("thm8.1/scaled-solves"),
        "core.unphased_s": sum(s.wall_time_s - s.ledger.timed_seconds
                               for s in solves) / count,
        "core.knearest_rounds": sum(
            r for led in ledgers for name, r in led.rounds_by_phase().items()
            if "k-nearest" in name) / count,
        "core.knearest_calls": per_solve("core.knearest_call", "calls"),
        "core.knearest_call_s": per_solve("core.knearest_call", "seconds"),
        "semiring.gather_calls": per_solve("semiring.gather", "calls"),
        "semiring.gather_s": per_solve("semiring.gather", "seconds"),
        "semiring.gather_gops": per_solve("semiring.gather", "work") / 1e9,
        "semiring.minplus_calls": per_solve("semiring.minplus", "calls"),
        "semiring.minplus_s": per_solve("semiring.minplus", "seconds"),
        "semiring.select_calls": per_solve("semiring.select", "calls"),
        "semiring.select_s": per_solve("semiring.select", "seconds"),
        "semiring.densify_s": per_solve("semiring.densify", "seconds"),
        "spanners.spanner_s": per_solve("spanners.spanner", "seconds"),
        "core.hopset_s": per_solve("core.hopset", "seconds"),
        "core.scaling_s": per_solve("core.scaling", "seconds"),
        "graphs.exact_s": per_solve("graphs.exact", "seconds"),
        "serve.warm_s": per_solve("serve.warm", "seconds"),
        "serve.build_s": per_solve("serve.build", "seconds"),
        "serve.oracle_mb": traced.oracle_mb,
        "serve.engine_calls": float(sum(e["calls"] for e in engine)),
        "serve.engine_s": engine_s,
        "serve.engine_share": engine_s / traced.load_wall if traced.load_wall else 0.0,
        "serve.select_s": load["semiring.select"]["seconds"]
        if "semiring.select" in load else 0.0,
        "serve.batch_mean": (sum(s["completed"] for s in stats) / flushes
                             if flushes else 0.0),
        "serve.deadline_share": (sum(s["deadline_flushes"] for s in stats) / flushes
                                 if flushes else 0.0),
        "serve.queue_wait_p50_ms": _percentile(waits, 50) * 1e3 if waits else 0.0,
        "serve.queue_wait_p99_ms": _percentile(waits, 99) * 1e3 if waits else 0.0,
        "serve.route_delivered_share": (traced.delivered / traced.routes
                                        if traced.routes else 0.0),
        "serve.client_p99_ms": (median([_percentile(e.latencies, 99)
                                        for e in traced.epochs]) * 1e3
                                if traced.epochs else 0.0),
        "setup.import_s": import_s,
        "trace.overhead_share": overhead,
    }


def fingerprint(workload: Any, seed: int) -> Dict[str, Any]:
    """Where and on what the numbers were measured."""
    import importlib.util

    import numpy as np
    import scipy

    from repro.semiring.kernels import resolve_kernel
    from workloads import make_graph

    matrix = make_graph(workload, seed, 0).matrix()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(ROOT),
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel": resolve_kernel(matrix, matrix),
        "workload": workload.name,
        "seed": seed,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"perfbench: no program source at {source.parent}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: E402 - needs the src path above

    import_s = time.perf_counter() - _STARTED
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    plain = workloads.run_pass(workload, args.seed, args.seconds)
    detail: Dict[str, Any] = {
        "samples": len(plain.latencies) or len(plain.solves),
        "epoch_samples": [len(epoch.latencies) for epoch in plain.epochs],
        "solve_seconds": plain.solve_seconds,
        "setup_seconds": plain.setup_seconds,
        "solve_digests": plain.digests,
        "oracle_key": plain.oracle_key,
        "error_rate": plain.failed / plain.attempted,
    }
    correct = plain.failed == 0
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        detail["wrapped_attributes"] = tracer.install()
        origin = time.perf_counter()
        traced = workloads.run_pass(workload, args.seed, args.seconds, tracer)
        # Solve i is on graph i in both passes; compare the common prefix.
        common = min(len(plain.solves), len(traced.solves))
        traced_match = (traced.digests[:common] == plain.digests[:common]
                        and traced.oracle_key == plain.oracle_key)
        correct = correct and traced.failed == 0 and traced_match
        detail["traced_outputs_match"] = traced_match
        metrics = per_layer(workload, plain, traced, tracer, import_s)
        kind = "per_layer"
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
    else:
        metrics = end_to_end(workload, plain, import_s)
        kind = "end_to_end"
        attempted, failed = plain.attempted, plain.failed
        detail["batchers"] = plain.batchers
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    detail["fingerprint"] = fingerprint(workload, args.seed)
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "fingerprint": detail["fingerprint"],
            "traceEvents": tracer.chrome_events(origin),
        }))
        detail["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
