"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``run``
    Run one APSP variant on a generated workload; print the factor, the
    measured stretch, and the round breakdown.

``frontier``
    Print the rounds/stretch frontier (all baselines + the paper's
    algorithms) on one workload — the E8 experiment on demand.

``tradeoff``
    Sweep Theorem 1.2's t on one workload.

``simulate``
    Exercise the message-level simulator: broadcast, full-load routing,
    distributed Bellman-Ford.

``profile``
    Run one variant and print the per-phase wall-clock / round breakdown
    measured by the ledger's phase contexts — where pipeline time goes.

``query``
    Solve one workload, assemble a distance oracle (through the
    process-wide :data:`repro.serve.DEFAULT_STORE`), and answer a batch
    of random distance queries plus a k-nearest sample.

``routes``
    Batch-route sampled packets over the oracle's greedy next-hop table
    and print the delivery/stretch audit plus one example path.

``serve-bench``
    Drive the async serving tier (:class:`repro.serve.OracleService`)
    with a synthetic closed- or open-loop load and print p50/p99
    latency and queries/sec for the single-query vs micro-batched
    paths at each offered-load level.

All commands take ``--n``, ``--family`` and ``--seed``; outputs are plain
text tables, suitable for piping into experiment logs.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from .analysis import format_table, stretch_profile, summarize_stretch
from .api import ApspSolver, SolverConfig
from .cclique import MessageBatch, RoundLedger, route_batch_two_phase
from .core import iter_variants, run_variant, variant_names
from .graphs import (
    WeightedGraph,
    cached_exact_apsp,
    check_estimate,
    erdos_renyi,
    exact_apsp,
    grid_graph,
    heavy_tail_weights,
    path_with_shortcuts,
    polynomial_weights,
    preferential_attachment,
)
from .protocols import run_distributed_bellman_ford
from .serve import (
    DEFAULT_STORE,
    OracleService,
    ServiceConfig,
    audit_stretch,
    oracle_handle,
    route_batch,
    run_closed_loop,
    run_open_loop,
)

FAMILIES = ("er", "er-dense", "grid", "path", "pa", "heavy", "poly")


def build_workload(family: str, n: int, rng: np.random.Generator) -> WeightedGraph:
    """Construct one of the named workload graphs."""
    if family == "er":
        return erdos_renyi(n, min(1.0, 6.0 / n), rng)
    if family == "er-dense":
        return erdos_renyi(n, min(1.0, 24.0 / n), rng)
    if family == "grid":
        side = max(2, int(round(n**0.5)))
        return grid_graph(side, rng)
    if family == "path":
        return path_with_shortcuts(n, rng, shortcut_count=n // 10)
    if family == "pa":
        return preferential_attachment(n, 2, rng)
    if family == "heavy":
        return erdos_renyi(n, min(1.0, 8.0 / n), rng, weights=heavy_tail_weights())
    if family == "poly":
        return erdos_renyi(
            n, min(1.0, 8.0 / n), rng, weights=polynomial_weights(n, 2.5)
        )
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")


def _common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=96, help="number of nodes")
    parser.add_argument(
        "--family", choices=FAMILIES, default="er", help="workload family"
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def cmd_run(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    graph = build_workload(args.family, args.n, rng)
    exact = cached_exact_apsp(graph)
    ledger = RoundLedger(graph.n)
    # Registry dispatch: ``t`` is dropped for variants that don't take it.
    result = run_variant(args.variant, graph, rng=rng, ledger=ledger, t=args.t)
    profile = stretch_profile(exact, result.estimate, result.factor)
    print(f"graph   : {graph}")
    print(f"variant : {args.variant}")
    print(f"factor  : {result.factor:.2f}")
    print(f"stretch : {summarize_stretch(profile)}")
    print(f"rounds  : {ledger.total_rounds}")
    print()
    rows = sorted(ledger.rounds_by_phase().items())
    print(format_table(["phase", "rounds"], rows))
    return 0


def cmd_frontier(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    graph = build_workload(args.family, args.n, rng)
    exact = cached_exact_apsp(graph)
    rows = []
    # Every registered variant, in registration order; variants with
    # required parameters (thm 1.2's t) run at their declared defaults.
    for spec in iter_variants():
        ledger = RoundLedger(graph.n)
        result = run_variant(
            spec.name, graph, rng=rng, ledger=ledger, apply_defaults=True
        )
        report = check_estimate(exact, result.estimate)
        rows.append(
            (
                spec.display_name,
                ledger.total_rounds,
                round(result.factor, 1),
                round(report.max_stretch, 3),
            )
        )
    print(
        format_table(
            ["algorithm", "rounds", "factor bound", "max stretch"],
            rows,
            title=f"frontier on {args.family} (n={graph.n})",
        )
    )
    return 0


def cmd_tradeoff(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    graph = build_workload(args.family, args.n, rng)
    exact = cached_exact_apsp(graph)
    rows = []
    for t in range(1, args.max_t + 1):
        ledger = RoundLedger(graph.n)
        result = run_variant("tradeoff", graph, rng=rng, ledger=ledger, t=t)
        report = check_estimate(exact, result.estimate)
        rows.append(
            (
                t,
                round(result.meta["tradeoff_bound"], 1),
                round(result.factor, 1),
                round(report.max_stretch, 3),
                ledger.total_rounds,
            )
        )
    print(
        format_table(
            ["t", "formula bound", "chained factor", "max stretch", "rounds"],
            rows,
            title=f"Theorem 1.2 tradeoff on {args.family} (n={graph.n})",
        )
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    # The communication plane is array-native: full load is feasible at
    # four-digit n (the old per-message simulator capped this at 48).
    n = min(args.n, 1024)
    perms = np.stack([rng.permutation(n) for _ in range(n)])
    batch = MessageBatch(
        src=np.tile(np.arange(n, dtype=np.int64), n),
        dst=perms.reshape(-1),
        payload=np.tile(np.arange(n, dtype=np.float64), n).reshape(-1, 1),
    )
    start = time.perf_counter()
    _, stats = route_batch_two_phase(batch, n)
    wall = time.perf_counter() - start
    print(f"routing  : {stats.messages} messages at full load "
          f"in {stats.rounds} rounds ({stats.spill_rounds} spill, "
          f"{wall:.2f}s wall)")
    graph = build_workload("er", min(n, 16), rng)
    run = run_distributed_bellman_ford(graph)
    exact = exact_apsp(graph)
    error = float(np.max(np.abs(run.estimate - exact)))
    print(f"protocol : Bellman-Ford on {graph}: {run.rounds} rounds, "
          f"max error {error:.0f}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    graph = build_workload(args.family, args.n, rng)
    ledger = RoundLedger(graph.n)
    start = time.perf_counter()
    result = run_variant(args.variant, graph, rng=rng, ledger=ledger, t=args.t)
    wall = time.perf_counter() - start
    seconds = ledger.seconds_by_phase()
    rounds = ledger.rounds_by_phase()
    phases = sorted(set(seconds) | set(rounds))
    rows = [
        (
            phase,
            rounds.get(phase, 0),
            f"{seconds.get(phase, 0.0) * 1e3:.1f}",
            f"{100.0 * seconds.get(phase, 0.0) / max(wall, 1e-12):.1f}%",
        )
        for phase in phases
    ]
    print(f"graph   : {graph}")
    print(f"variant : {args.variant}")
    print(f"factor  : {result.factor:.2f}")
    print(f"wall    : {wall * 1e3:.1f} ms "
          f"({ledger.timed_seconds * 1e3:.1f} ms inside ledger phases)")
    print(f"rounds  : {ledger.total_rounds}")
    print()
    print(format_table(["phase", "rounds", "ms", "% of wall"], rows))
    return 0


def _build_oracle(args: argparse.Namespace):
    """Fetch the workload's oracle through the shared store.

    The store is addressed by the *request* — graph content hash,
    variant, seed, t (:func:`repro.serve.oracle_handle`) — so a
    repeated invocation in the same process skips the solver entirely
    and reuses the cached artifact; the returned provenance string says
    which path was taken.
    """
    rng = np.random.default_rng(args.seed)
    graph = build_workload(args.family, args.n, rng)
    handle = oracle_handle(graph, args.variant, args.seed, args.t)
    oracle = DEFAULT_STORE.lookup(handle)
    if oracle is not None:
        return graph, oracle, "hit (cached oracle reused; solve skipped)"
    # ``t`` is forwarded for the tradeoff variant; the registry drops it
    # for variants that don't take it.
    solver = ApspSolver(
        SolverConfig(variant=args.variant, seed=args.seed, t=args.t)
    )
    result = solver.solve(graph)
    oracle = DEFAULT_STORE.get_or_build(graph, result, alias=handle)
    return graph, oracle, "miss (workload solved, oracle built)"


def _print_store_line(provenance: str) -> None:
    stats = DEFAULT_STORE.stats()
    print(f"store   : {provenance}; {stats['entries']} cached, "
          f"{stats['hits']} hits / {stats['misses']} misses, "
          f"{stats['builds']} builds "
          f"({stats['build_seconds'] * 1e3:.0f} ms building)")


def cmd_query(args: argparse.Namespace) -> int:
    graph, oracle, provenance = _build_oracle(args)
    exact = cached_exact_apsp(graph)
    print(f"graph   : {graph}")
    print(f"oracle  : variant={args.variant} factor={oracle.factor:.1f} "
          f"{oracle.nbytes / 2**20:.2f} MiB")
    _print_store_line(provenance)
    qrng = np.random.default_rng(args.seed + 1)
    sources = qrng.integers(0, graph.n, size=args.queries)
    targets = qrng.integers(0, graph.n, size=args.queries)
    estimates = oracle.query_many(sources, targets)
    rows = []
    for s, t, est in zip(sources, targets, estimates):
        true = exact[s, t]
        ratio = est / true if np.isfinite(true) and true > 0 else float("nan")
        rows.append((int(s), int(t),
                     "inf" if not np.isfinite(est) else f"{est:.0f}",
                     "inf" if not np.isfinite(true) else f"{true:.0f}",
                     f"{ratio:.3f}"))
    print()
    print(format_table(["source", "target", "estimate", "exact", "ratio"],
                       rows, title=f"{args.queries} random distance queries"))
    k = min(args.k, graph.n - 1)
    anchor = int(sources[0]) if len(sources) else 0
    if k >= 1:
        ids, dists = oracle.k_nearest(k, sources=[anchor])
        pairs = ", ".join(
            f"{v} (d~{d:.0f})" for v, d in zip(ids[0], dists[0]) if v >= 0
        )
        print(f"\n{k}-nearest of node {anchor}: {pairs}")
    return 0


def cmd_routes(args: argparse.Namespace) -> int:
    graph, oracle, provenance = _build_oracle(args)
    exact = cached_exact_apsp(graph)
    audit = audit_stretch(
        oracle, exact, np.random.default_rng(args.seed + 1), samples=args.pairs
    )
    print(f"graph   : {graph}")
    print(f"oracle  : variant={args.variant} factor={oracle.factor:.1f}")
    _print_store_line(provenance)
    print(f"sampled : {audit.samples} pairs -> {audit.attempts} attempted "
          f"({audit.skipped_self} self, {audit.skipped_unreachable} "
          f"unreachable, {audit.skipped_zero} zero-distance)")
    rate = audit.delivery_rate
    print(f"routing : delivered {audit.delivered} "
          f"({'n/a' if np.isnan(rate) else f'{rate:.1%}'}), "
          f"{audit.loops} loops, {audit.dead_ends} dead ends, "
          f"{audit.budget_exhausted} over budget")
    if audit.delivered:
        print(f"stretch : mean {audit.mean_stretch:.3f}, "
              f"max {audit.max_stretch:.3f} (bound {oracle.factor:.1f})")
    qrng = np.random.default_rng(args.seed + 2)
    finite = np.isfinite(exact) & (exact > 0)
    pairs = np.argwhere(finite)
    if len(pairs):
        s, t = map(int, pairs[qrng.integers(0, len(pairs))])
        routes = route_batch(oracle, [s], [t], record_paths=True)
        print(f"\nexample packet {s} -> {t}: "
              f"{' -> '.join(map(str, routes.path(0)))}")
        if routes.delivered[0]:
            print(f"  length {routes.lengths[0]:.0f} vs optimal "
                  f"{exact[s, t]:.0f} ({routes.lengths[0] / exact[s, t]:.2f}x)")
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    import asyncio
    import json

    rng = np.random.default_rng(args.seed)
    graph = build_workload(args.family, args.n, rng)
    levels = [int(v) for v in str(args.levels).split(",") if v.strip()]
    if not levels:
        raise ValueError("--levels must name at least one offered-load level")
    config = ServiceConfig(
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        max_workers=args.workers,
    )
    with OracleService(config) as service:
        start = time.perf_counter()
        handle = service.warm(
            graph, variant=args.variant, seed=args.seed, t=args.t
        )
        warm_seconds = time.perf_counter() - start
        qrng = np.random.default_rng(args.seed + 1)
        sources = qrng.integers(0, graph.n, size=4096)
        targets = qrng.integers(0, graph.n, size=4096)

        def request_factory(batched: bool):
            endpoint = getattr(service, args.endpoint)

            async def request(i: int):
                s = int(sources[i % 4096])
                t = int(targets[i % 4096])
                if args.endpoint == "k_nearest":
                    return await service.k_nearest(
                        handle, s, args.k, batched=batched
                    )
                return await endpoint(handle, s, t, batched=batched)

            return request

        rows = []
        for level in levels:
            for batched in (False, True):
                request = request_factory(batched)
                if args.mode == "open":
                    report = asyncio.run(
                        run_open_loop(request, args.requests, float(level))
                    )
                else:
                    report = asyncio.run(
                        run_closed_loop(request, args.requests, level)
                    )
                snap = report.snapshot()
                rows.append(
                    (
                        level,
                        "batched" if batched else "single",
                        f"{report.qps:.0f}",
                        f"{(snap['latency']['p50'] or 0) * 1e3:.2f}",
                        f"{(snap['latency']['p99'] or 0) * 1e3:.2f}",
                        report.errors,
                    )
                )
        print(f"graph   : {graph}")
        print(f"service : warm {warm_seconds * 1e3:.0f} ms, "
              f"max_batch={config.max_batch}, "
              f"max_delay={config.max_delay_ms:.1f} ms, "
              f"{config.max_workers} workers")
        offered = "clients" if args.mode == "closed" else "req/s"
        print()
        print(format_table(
            [offered, "path", "qps", "p50 ms", "p99 ms", "errors"],
            rows,
            title=f"serve-bench: {args.endpoint} endpoint, "
            f"{args.mode}-loop x {args.requests} requests",
        ))
        snapshot = service.snapshot()
        assert snapshot == json.loads(json.dumps(snapshot, allow_nan=False))
        store = snapshot["tenants"]["default"]
        batching = snapshot["metrics"]["batching"].get(args.endpoint, {})
        print(f"\nstore   : {store['hits']} hits / {store['misses']} misses, "
              f"{store['builds']} builds "
              f"({store['build_seconds'] * 1e3:.0f} ms), "
              f"{store['evictions']} evictions")
        print(f"batches : {batching.get('batches', 0)} flushed, "
              f"mean size {batching.get('mean_batch') or 0:.1f}, "
              f"max {batching.get('max_batch', 0)} "
              f"(snapshot JSON round-trip OK)")
    return 0


def _coerce_param(value: str):
    """``--set`` values: int where possible, then float, else string."""
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .chaos import get_scenario, iter_scenarios, run_scenario

    if args.list:
        rows = [
            (spec.name, spec.faults, spec.recovery)
            for spec in iter_scenarios()
        ]
        print(format_table(["scenario", "faults", "recovery"], rows,
                           title="registered chaos scenarios"))
        return 0

    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key] = _coerce_param(value)

    names = [args.scenario] if args.scenario else [
        spec.name for spec in iter_scenarios()
    ]
    reports = []
    rows = []
    for name in names:
        accepted = get_scenario(name).default_params
        params = {k: v for k, v in overrides.items() if k in accepted}
        report = run_scenario(name, n=args.n, seed=args.seed, **params)
        reports.append(report)
        score = report.score

        def cell(key, fmt="{:.3f}"):
            value = score.get(key)
            return fmt.format(value) if value is not None else "-"

        rows.append((
            name,
            cell("delivery_no_recovery"),
            cell("delivery_rate"),
            cell("recovery_gain", "{:+.3f}"),
            cell("rounds_to_recovery", "{:d}"),
            cell("stretch_degradation", "{:.3f}x"),
            cell("detection_rate"),
        ))
    print(format_table(
        ["scenario", "no-recovery", "recovered", "gain", "extra rounds",
         "stretch", "detection"],
        rows,
        title=f"chaos scenarios (n={args.n}, seed={args.seed})",
    ))
    if args.json:
        payload = [report.snapshot() for report in reports]
        with open(args.json, "w", encoding="utf-8") as sink:
            json.dump(payload[0] if len(payload) == 1 else payload,
                      sink, indent=2, sort_keys=True)
        print(f"\nreport written to {args.json}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    # Lazy import: the lint plane is pure stdlib-ast tooling that no
    # other command needs in its import path.
    from .lint import (
        get_rule,
        lint_tree,
        render_report,
        render_rule_listing,
        write_json_report,
    )

    if args.list_rules:
        print(render_rule_listing())
        return 0
    rules = None
    if args.rules:
        rules = [
            get_rule(rule_id.strip())
            for rule_id in args.rules.split(",")
            if rule_id.strip()
        ]
    report = lint_tree(args.root, paths=args.paths or None, rules=rules)
    print(render_report(report))
    if args.json:
        write_json_report(report, args.json)
        print(f"report written to {args.json}")
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Congested Clique approximate APSP (PODC 2024) reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one APSP variant")
    _common_arguments(run_parser)
    run_parser.add_argument(
        "--variant",
        choices=variant_names(),
        default="theorem11",
    )
    run_parser.add_argument("--t", type=int, default=2, help="tradeoff parameter")
    run_parser.set_defaults(handler=cmd_run)

    frontier_parser = subparsers.add_parser(
        "frontier", help="baselines vs the paper on one workload"
    )
    _common_arguments(frontier_parser)
    frontier_parser.set_defaults(handler=cmd_frontier)

    tradeoff_parser = subparsers.add_parser(
        "tradeoff", help="sweep Theorem 1.2's t"
    )
    _common_arguments(tradeoff_parser)
    tradeoff_parser.add_argument("--max-t", type=int, default=4)
    tradeoff_parser.set_defaults(handler=cmd_tradeoff)

    simulate_parser = subparsers.add_parser(
        "simulate", help="message-level simulator demos"
    )
    _common_arguments(simulate_parser)
    simulate_parser.set_defaults(handler=cmd_simulate)

    profile_parser = subparsers.add_parser(
        "profile", help="per-phase wall-clock/round breakdown of one variant"
    )
    _common_arguments(profile_parser)
    profile_parser.add_argument(
        "--variant",
        choices=variant_names(),
        default="theorem11",
    )
    profile_parser.add_argument(
        "--t", type=int, default=2, help="tradeoff parameter"
    )
    profile_parser.set_defaults(handler=cmd_profile)

    query_parser = subparsers.add_parser(
        "query", help="answer distance queries from a built oracle"
    )
    _common_arguments(query_parser)
    query_parser.add_argument(
        "--variant",
        choices=variant_names(),
        default="theorem11",
    )
    query_parser.add_argument(
        "--t", type=int, default=2, help="tradeoff parameter"
    )
    query_parser.add_argument(
        "--queries", type=int, default=8, help="random pairs to query"
    )
    query_parser.add_argument(
        "--k", type=int, default=5, help="k for the k-nearest sample"
    )
    query_parser.set_defaults(handler=cmd_query)

    routes_parser = subparsers.add_parser(
        "routes", help="batch-route packets over the oracle's tables"
    )
    _common_arguments(routes_parser)
    routes_parser.add_argument(
        "--variant",
        choices=variant_names(),
        default="theorem11",
    )
    routes_parser.add_argument(
        "--t", type=int, default=2, help="tradeoff parameter"
    )
    routes_parser.add_argument(
        "--pairs", type=int, default=256, help="sampled source/target pairs"
    )
    routes_parser.set_defaults(handler=cmd_routes)

    serve_parser = subparsers.add_parser(
        "serve-bench",
        help="drive the async serving tier with a synthetic load",
    )
    _common_arguments(serve_parser)
    serve_parser.add_argument(
        "--variant",
        choices=variant_names(),
        default="theorem11",
    )
    serve_parser.add_argument(
        "--t", type=int, default=2, help="tradeoff parameter"
    )
    serve_parser.add_argument(
        "--endpoint",
        choices=("distance", "route", "k_nearest"),
        default="distance",
        help="which service endpoint the load exercises",
    )
    serve_parser.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="closed loop (levels = concurrent clients) or open loop "
        "(levels = offered requests/sec)",
    )
    serve_parser.add_argument(
        "--levels",
        default="4,16,64",
        help="comma-separated offered-load levels",
    )
    serve_parser.add_argument(
        "--requests", type=int, default=400, help="requests per level/path"
    )
    serve_parser.add_argument(
        "--max-batch", type=int, default=64, help="micro-batch size bound"
    )
    serve_parser.add_argument(
        "--max-delay-ms", type=float, default=2.0, help="flush deadline"
    )
    serve_parser.add_argument(
        "--workers", type=int, default=4, help="thread-pool workers"
    )
    serve_parser.add_argument(
        "--k", type=int, default=5, help="k for the k_nearest endpoint"
    )
    serve_parser.set_defaults(handler=cmd_serve_bench)

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="run fault-injection scenarios and score recovery",
    )
    chaos_parser.add_argument(
        "--n", type=int, default=48, help="clique size for each scenario"
    )
    chaos_parser.add_argument("--seed", type=int, default=0)
    from .chaos import scenario_names

    chaos_parser.add_argument(
        "--scenario",
        default=None,
        choices=scenario_names(),
        help="one scenario name (default: run every registered scenario)",
    )
    chaos_parser.add_argument(
        "--list", action="store_true", help="list registered scenarios"
    )
    chaos_parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable), e.g. --set drop=0.1",
    )
    chaos_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the ChaosReport(s) JSON artifact to PATH",
    )
    chaos_parser.set_defaults(handler=cmd_chaos)

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the project-invariant static analysis plane",
        description=(
            "AST-based lint pass over src/, benchmarks/, tests/, and "
            "examples/ enforcing the repo's correctness invariants: "
            "determinism (seeded RNG, no ambient wall clocks), "
            "concurrency (no blocking under locks, ContextVar pin "
            "hand-off into executor workers), JSON-safety of snapshots, "
            "allocation hygiene (out= buffers on hot paths), and "
            "registry/benchmark metadata contracts.  Exits non-zero on "
            "any finding — the CI gate."
        ),
        epilog=(
            "Suppress a reviewed exception with a `# lint: allow[rule-id]` "
            "pragma on the flagged line or the line directly above "
            "(comma-separate several rule ids; `*` allows every rule). "
            "Pragmas are for audited sites only — e.g. the wall-clock "
            "phase profiler in RoundLedger — and should carry a comment "
            "justifying the exception.  See DESIGN.md section 13 for the "
            "rule catalogue and how to add a rule."
        ),
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the standard scan roots)",
    )
    lint_parser.add_argument(
        "--root",
        default=".",
        help="repository root rule scopes are resolved against (default: .)",
    )
    lint_parser.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help="run only these rule ids (default: every registered rule)",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules by family and exit",
    )
    lint_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the machine-readable report artifact to PATH",
    )
    lint_parser.set_defaults(handler=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
