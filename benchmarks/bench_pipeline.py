"""E18 — end-to-end pipeline profiler + construction-layer speedups.

Two claims are regenerated here:

* **phase breakdown** — the Theorem 1.1 / Theorem 1.2 / Theorem 7.1
  pipelines now report *wall-clock per phase* through the
  :class:`~repro.cclique.accounting.RoundLedger` phase contexts; this
  module records them at several sizes and emits ``BENCH_pipeline.json``
  so CI and dashboards can track where pipeline time goes;
* **construction speedup** — the array-native construction layer
  (CSR-view Baswana–Sen spanner, batched-dijkstra hopset) beats the
  pre-PR per-vertex dict implementations (frozen below as references) by
  >= 3x / >= 2x at n = 512, the acceptance bar of the layer;
* **k-nearest speedup** — ``knearest_exact``, the CSR ball growth
  Theorem 1.1's first stage runs, against Lemma 5.2's dense filtered
  power (``knearest_iterated``) at n = 2048 (Erdős–Rényi, p = 4/n):
  bit-identical rows, >= 2.2x faster;
* **k-nearest via hopset** — ``knearest_exact_via_hopset``, the same
  ball growth on Lemma 3.3's ``G ∪ H``, against ``knearest_iterated`` on
  the union's matrix, on the canonicalisation record's heavy-tail
  ``G ∪ H`` at n = 1024: bit-identical rows;
* **canonicalisation** — the single int64-key sorts of ``min_dedup_edges``
  and ``group_argmin`` plus the array-native Lemma 8.1 ``G_i`` against the
  frozen three-key lexsorts and the per-edge triple-list construction,
  on a heavy-tail ``G ∪ H`` at n = 1024 (Theorem 8.1's benchmark input):
  bit-identical outputs;
* **skeleton** — Lemma 6.2's ``X ⊗ Y`` as a sparse join on ``t`` and
  Lemma 6.3's extension over scattered known entries, against the frozen
  dense product, dense ``(n, n)`` known matrix and ``np.where`` extension,
  on Theorem 1.1's n = 2048 k-nearest tables: bit-identical outputs.

Smoke mode: ``REPRO_BENCH_SMOKE=1`` restricts the sweep to the smallest
size and skips the speedup ratio assertions (CI asserts the JSON schema
and the hopset / k-nearest equivalence, which need no quiet machine).
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Dict, List, Set, Tuple

import numpy as np
import pytest

from repro.analysis import emit, format_table
from repro.cclique import RoundLedger
from repro.core import (
    build_hitting_set,
    build_knearest_hopset,
    build_scaled_graph,
    build_skeleton,
    extend_estimate,
    knearest_exact,
    knearest_exact_via_hopset,
    knearest_iterated,
    params,
    plan_scaling,
    run_variant,
)
from repro.core.hopsets import _local_dijkstra
from repro.graphs import (
    WeightedGraph,
    erdos_renyi,
    exact_apsp,
    group_argmin,
    heavy_tail_weights,
    min_dedup_edges,
)
from repro.semiring import INF, sparse_minplus
from repro.semiring.minplus import k_smallest_in_rows
from repro.spanners import baswana_sengupta_spanner, spanner_edge_bound

from conftest import artifact_path, host_fingerprint, rng_for, workload

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
SIZES = (96,) if SMOKE else (128, 256, 512)
SPEEDUP_N = 512
#: Theorem 1.1's first stage is measured at the repo benchmark's size.
KNEAREST_N = 2048
#: The canonicalisation record runs on solve-thm81's graph size.
CANONICAL_N = 1024
#: (variant, params) triples profiled per size — the three headline
#: pipelines of the registry.
PIPELINES = (
    ("theorem11", {}),
    ("tradeoff", {"t": 2}),
    ("small-diameter", {}),
)


# --------------------------------------------------------------------- #
# Frozen pre-PR reference implementations (per-vertex, dict-based).
# Kept verbatim so the speedup claim is measured against the real thing.
# --------------------------------------------------------------------- #


def _reference_lightest_edges_per_cluster(edges, cluster_of, vertex):
    best: Dict[int, Tuple[float, int]] = {}
    for neighbour, weight in edges[vertex].items():
        cluster = int(cluster_of[neighbour])
        if cluster < 0:
            continue
        key = (weight, neighbour)
        if cluster not in best or key < best[cluster]:
            best[cluster] = key
    return best


def reference_spanner(
    graph: WeightedGraph, k: int, rng: np.random.Generator
) -> WeightedGraph:
    """The pre-PR sequential Baswana–Sen construction (dict residual)."""
    n = graph.n
    sample_probability = n ** (-1.0 / k)
    edges: Dict[int, Dict[int, float]] = {v: {} for v in range(n)}
    for u, v, w in graph.edges():
        edges[u][v] = min(w, edges[u].get(v, np.inf))
        edges[v][u] = min(w, edges[v].get(u, np.inf))
    spanner: Set[Tuple[int, int, float]] = set()

    def add_edge(u, v, w):
        spanner.add((min(u, v), max(u, v), w))

    def drop_edges_to_cluster(vertex, cluster, cluster_of):
        for neighbour in [
            x for x in edges[vertex] if int(cluster_of[x]) == cluster
        ]:
            del edges[vertex][neighbour]
            del edges[neighbour][vertex]

    cluster_of = np.arange(n, dtype=np.int64)
    for _ in range(k - 1):
        centers = set(int(c) for c in np.unique(cluster_of[cluster_of >= 0]))
        sampled = {c for c in centers if rng.random() < sample_probability}
        new_cluster = np.full(n, -1, dtype=np.int64)
        for vertex in range(n):
            c = int(cluster_of[vertex])
            if c >= 0 and c in sampled:
                new_cluster[vertex] = c
        for vertex in range(n):
            old = int(cluster_of[vertex])
            if old < 0 or old in sampled:
                continue
            best = _reference_lightest_edges_per_cluster(edges, cluster_of, vertex)
            sampled_adjacent = {c: key for c, key in best.items() if c in sampled}
            if not sampled_adjacent:
                for cluster, (weight, neighbour) in best.items():
                    add_edge(vertex, neighbour, weight)
                    drop_edges_to_cluster(vertex, cluster, cluster_of)
            else:
                target_cluster, (target_w, target_nbr) = min(
                    sampled_adjacent.items(), key=lambda item: item[1]
                )
                add_edge(vertex, target_nbr, target_w)
                new_cluster[vertex] = target_cluster
                drop_edges_to_cluster(vertex, target_cluster, cluster_of)
                for cluster, (weight, neighbour) in best.items():
                    if cluster == target_cluster:
                        continue
                    if (weight, neighbour) < (target_w, target_nbr):
                        add_edge(vertex, neighbour, weight)
                        drop_edges_to_cluster(vertex, cluster, cluster_of)
        cluster_of = new_cluster
        for vertex in range(n):
            own = int(cluster_of[vertex])
            if own < 0:
                continue
            same = [
                x for x in edges[vertex] if int(cluster_of[x]) == own and x > vertex
            ]
            for neighbour in same:
                del edges[vertex][neighbour]
                del edges[neighbour][vertex]
    for vertex in range(n):
        best = _reference_lightest_edges_per_cluster(edges, cluster_of, vertex)
        for cluster, (weight, neighbour) in best.items():
            add_edge(vertex, neighbour, weight)
    return WeightedGraph(
        n,
        [(u, v, w) for (u, v, w) in sorted(spanner)],
        require_positive=False,
        require_integer=False,
    )


def reference_hopset(
    graph: WeightedGraph, delta: np.ndarray, k: int
) -> WeightedGraph:
    """The pre-PR hopset construction: per-vertex dict assembly, heapq
    Dijkstra per node, and the triple-list graph constructor — the full
    cost the Lemma 3.2 step used to pay."""
    n = graph.n
    nearest_indices, _ = k_smallest_in_rows(delta, k)
    short_edges = [graph.k_shortest_out_edges(u, k) for u in range(n)]
    full_adjacency = graph.adjacency()
    hopset_edges: List[Tuple[int, int, float]] = []
    for v in range(n):
        local: Dict[int, List[Tuple[int, float]]] = {}
        for u in nearest_indices[v]:
            if u < 0:
                continue
            local.setdefault(int(u), []).extend(short_edges[int(u)])
        local.setdefault(v, [])
        local[v] = list(full_adjacency[v]) + local[v]
        dist = _local_dijkstra(local, v)
        for u, d_vu in dist.items():
            if u != v and math.isfinite(d_vu):
                hopset_edges.append((v, int(u), float(d_vu)))
    return WeightedGraph(
        n,
        hopset_edges,
        directed=graph.directed,
        require_positive=False,
        require_integer=False,
    )


def reference_min_dedup_edges(src, dst, wgt):
    """The pre-PR three-key lexsort dedup."""
    order = np.lexsort((wgt, dst, src))
    src, dst, wgt = src[order], dst[order], wgt[order]
    first = np.ones(len(src), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    return src[first], dst[first], wgt[first]


def reference_group_argmin(keys, weights, tiebreak):
    """The pre-PR three-key lexsort group argmin."""
    order = np.lexsort((tiebreak, weights, keys))
    sorted_keys = keys[order]
    first = np.ones(len(sorted_keys), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return sorted_keys[first], order[first]


def reference_scaled_graph(graph, i, plan):
    """The pre-PR per-edge Lemma 8.1 construction of ``G_i``."""
    x = float(2**i)
    edges = [(u, v, min(math.ceil(w / x), plan.cap)) for u, v, w in graph.edges()]
    return WeightedGraph(
        graph.n,
        edges,
        directed=graph.directed,
        require_positive=False,
        require_integer=False,
    )


def reference_skeleton(graph, nbr_indices, nbr_values, k, rng, delta_gs):
    """The frozen dense skeleton layer: dense X*Y product, dense (n, n) known
    matrix, ``np.where`` extension.  Returns the skeleton graph's edge
    arrays and eta."""
    n = graph.n
    members = build_hitting_set(nbr_indices, n, k, rng)
    size = len(members)
    compact = np.full(n, -1, dtype=np.int64)
    compact[members] = np.arange(size)
    in_s = np.zeros(n, dtype=bool)
    in_s[members] = True
    member_mask = np.where(nbr_indices >= 0, in_s[nbr_indices], False)
    first_pos = member_mask.argmax(axis=1)
    center = compact[nbr_indices[np.arange(n), first_pos]]
    center_delta = nbr_values[np.arange(n), first_pos]

    x = np.full((size, n), INF)
    rows = np.repeat(center, k)
    cols = nbr_indices.ravel()
    vals = (center_delta[:, None] + nbr_values).ravel()
    keep = (cols >= 0) & np.isfinite(vals)
    np.minimum.at(x, (rows[keep], cols[keep]), vals[keep])
    y = np.full((n, size), INF)
    eu, ev, ew = graph.edge_u, graph.edge_v, graph.edge_w
    np.minimum.at(y, (eu, center[ev]), ew + center_delta[ev])
    np.minimum.at(y, (ev, center[eu]), ew + center_delta[eu])
    np.minimum.at(y, (np.arange(n), center), center_delta)
    product = sparse_minplus(
        x, y, rho_st_bound=max(1.0, size * size / n), clique_n=n
    ).product
    weights = np.minimum(product, product.T)
    np.fill_diagonal(weights, INF)
    rows, cols = np.nonzero(np.isfinite(weights))
    upper = rows < cols
    rows, cols = rows[upper], cols[upper]
    skeleton_graph = WeightedGraph.from_arrays(
        size, rows, cols, weights[rows, cols],
        require_positive=False, require_integer=False,
    )

    known = np.full((n, n), INF)
    rows_all = np.repeat(np.arange(n), k)
    cols_all = nbr_indices.ravel()
    keep = (cols_all >= 0) & np.isfinite(nbr_values.ravel())
    np.minimum.at(known, (rows_all[keep], cols_all[keep]), nbr_values.ravel()[keep])
    known = np.minimum(known, known.T)
    np.fill_diagonal(known, 0.0)

    through = (
        center_delta[:, None] + delta_gs[center][:, center] + center_delta[None, :]
    )
    eta = np.where(np.isfinite(known), known, through)
    np.fill_diagonal(eta, 0.0)
    eta = np.minimum(eta, eta.T)
    g_s = skeleton_graph
    return [g_s.edge_u, g_s.edge_v, g_s.edge_w, eta]


# --------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------- #


def best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def profile_pipelines() -> List[Dict]:
    records: List[Dict] = []
    for n in SIZES:
        graph = workload("er-dense", n)
        for variant, params in PIPELINES:
            ledger = RoundLedger(graph.n)
            rng = rng_for(f"pipeline:{variant}:{n}")
            start = time.perf_counter()
            run_variant(variant, graph, rng, ledger=ledger, **params)
            wall = time.perf_counter() - start
            records.append(
                {
                    "variant": variant,
                    "n": n,
                    "wall_s": wall,
                    "timed_s": ledger.timed_seconds,
                    "rounds": ledger.total_rounds,
                    "seconds_by_phase": ledger.seconds_by_phase(),
                    "rounds_by_phase": ledger.rounds_by_phase(),
                }
            )
    return records


def measure_construction() -> List[Dict]:
    """New-vs-reference timings for the vectorized construction phases."""
    n = SIZES[0] if SMOKE else SPEEDUP_N
    graph = workload("er-dense", n)
    records: List[Dict] = []

    spanner_rng = rng_for(f"pipeline:spanner:{n}")
    state = spanner_rng.bit_generator.state

    def fresh_rng():
        spanner_rng.bit_generator.state = state
        return spanner_rng

    vec_s = best_of(lambda: baswana_sengupta_spanner(graph, 3, fresh_rng()))
    ref_s = best_of(lambda: reference_spanner(graph, 3, fresh_rng()))
    vec_spanner = baswana_sengupta_spanner(graph, 3, fresh_rng())
    records.append(
        {
            "phase": "spanner (Baswana-Sen, k=3)",
            "n": n,
            "reference_s": ref_s,
            "vectorized_s": vec_s,
            "speedup": ref_s / vec_s,
            "edges": vec_spanner.num_edges,
            "edge_bound_2x": 2 * spanner_edge_bound(n, 3),
        }
    )

    exact = exact_apsp(graph)
    delta = exact * 2.0
    np.fill_diagonal(delta, 0.0)
    result = build_knearest_hopset(graph, delta, 2.0)
    k = result.k
    vec_h = best_of(lambda: build_knearest_hopset(graph, delta, 2.0))
    ref_h = best_of(lambda: reference_hopset(graph, delta, k))
    ref_graph = reference_hopset(graph, delta, k)
    records.append(
        {
            "phase": f"hopset (Lemma 3.2, k={k})",
            "n": n,
            "reference_s": ref_h,
            "vectorized_s": vec_h,
            "speedup": ref_h / vec_h,
            "edges": result.hopset.num_edges,
            "identical_to_reference": bool(
                np.array_equal(result.hopset.edge_u, ref_graph.edge_u)
                and np.array_equal(result.hopset.edge_v, ref_graph.edge_v)
                and np.array_equal(result.hopset.edge_w, ref_graph.edge_w)
            ),
        }
    )
    records.append(measure_knearest(SIZES[0] if SMOKE else KNEAREST_N))
    records.append(measure_canonicalisation(SIZES[0] if SMOKE else CANONICAL_N))
    records.append(measure_knearest_hopset(SIZES[0] if SMOKE else CANONICAL_N))
    records.append(measure_skeleton(SIZES[0] if SMOKE else KNEAREST_N))
    return records


def measure_knearest(n: int) -> Dict:
    """CSR ball growth vs Lemma 5.2's dense filtered power.

    ``vectorized_s`` times ``knearest_exact``, which Theorem 1.1's first
    stage runs, on the graph itself; ``reference_s`` times
    ``knearest_iterated`` on its matrix.  Both must agree bit for bit.
    """
    graph = erdos_renyi(n, 4.0 / n, rng_for(f"pipeline:knearest:{n}"))
    k = params.theorem11_k0(n)
    h, i = params.choose_hop_schedule(n, k)
    return _versus_dense(
        f"knearest (Lemma 5.2, k={k}, h={h}, i={i})",
        lambda: knearest_exact(graph, k, h, i),
        graph.matrix(), k, h, i,
    )


def _versus_dense(
    phase: str, grow, matrix: np.ndarray, k: int, h: int, i: int
) -> Dict:
    """A construction record: ``grow()`` against ``knearest_iterated``.

    The dense filtered power takes seconds at these sizes: one timed run.
    """
    start = time.perf_counter()
    reference = knearest_iterated(matrix, k, h, i)
    dense_s = time.perf_counter() - start
    got = grow()
    grow_s = best_of(grow)
    return {
        "phase": phase,
        "n": len(matrix),
        "reference_s": dense_s,
        "vectorized_s": grow_s,
        "speedup": dense_s / grow_s,
        "identical_to_reference": bool(
            np.array_equal(got.indices, reference.indices)
            and np.array_equal(got.values, reference.values)
        ),
    }


def _canonical_union(n: int):
    """Theorem 8.1's benchmark input: a heavy-tail Erdős–Rényi graph
    (p = 8/n), a 2-approximation ``delta``, its Lemma 3.2 hopset and
    ``G ∪ H``, plus the generator for what the caller draws next."""
    rng = rng_for(f"pipeline:canonical:{n}")
    graph = erdos_renyi(n, 8.0 / n, rng, weights=heavy_tail_weights())
    delta = exact_apsp(graph) * 2.0
    np.fill_diagonal(delta, 0.0)
    hopset = build_knearest_hopset(graph, delta, 2.0)
    return rng, graph, delta, hopset, hopset.augmented(graph)


def measure_knearest_hopset(n: int) -> Dict:
    """Lemma 3.3's ball growth on ``G ∪ H`` vs the dense filtered power.

    The union is the canonicalisation record's; ``k = isqrt(n)`` and
    ``h = 2`` are Theorem 7.1's final stage, ``i`` the Lemma 3.3 count
    for the hopset's beta bound.
    """
    _, _, _, hopset, union = _canonical_union(n)
    k, h, beta = max(1, math.isqrt(n)), 2, hopset.beta_bound
    i = params.knearest_iterations(beta, h)
    return _versus_dense(
        f"knearest-hopset (Lemma 3.3, k={k}, h={h}, i={i})",
        lambda: knearest_exact_via_hopset(union, k, h, beta),
        union.matrix(), k, h, i,
    )


def measure_canonicalisation(n: int) -> Dict:
    """Single-key sorts and array-native Lemma 8.1 vs the frozen lexsorts.

    The input is Theorem 8.1's: a heavy-tail Erdős–Rényi graph (p = 8/n)
    and its Lemma 3.2 hopset.  ``min_dedup_edges`` gets the union's
    both-orientation records plus ``G``'s again, shuffled;
    ``group_argmin`` gets the same records keyed by (vertex, random
    cluster of the neighbour), Baswana–Sen style; Lemma 8.1 builds every
    needed ``G_i`` of the union.
    """
    rng, graph, delta, hopset, union = _canonical_union(n)
    csr = union.csr()
    src = np.concatenate([np.repeat(np.arange(n), csr.degrees), graph.edge_u])
    dst = np.concatenate([csr.indices, graph.edge_v])
    wgt = np.concatenate([csr.weights, graph.edge_w])
    shuffle = rng.permutation(len(src))
    src, dst, wgt = src[shuffle], dst[shuffle], wgt[shuffle]
    keys = src * n + rng.integers(0, max(1, n // 8), n)[dst]
    plan = plan_scaling(delta, h=hopset.beta_bound, eps=0.1)

    def scaled_arrays(build):
        arrays = []
        for i in plan.needed:
            scaled = build(union, i, plan)
            arrays += [scaled.edge_u, scaled.edge_v, scaled.edge_w]
        return arrays

    pairs = {
        "min_dedup_edges": (
            lambda: min_dedup_edges(src, dst, wgt),
            lambda: reference_min_dedup_edges(src, dst, wgt),
        ),
        "group_argmin": (
            lambda: group_argmin(keys, wgt, dst),
            lambda: reference_group_argmin(keys, wgt, dst),
        ),
        "lemma8.1": (
            lambda: scaled_arrays(build_scaled_graph),
            lambda: scaled_arrays(reference_scaled_graph),
        ),
    }
    parts: Dict[str, Dict[str, float]] = {}
    identical = True
    for name, (new, reference) in pairs.items():
        got, want = new(), reference()
        identical &= len(got) == len(want) and all(
            np.array_equal(g, w) for g, w in zip(got, want)
        )
        parts[name] = {"reference_s": best_of(reference), "vectorized_s": best_of(new)}
    reference_s = sum(p["reference_s"] for p in parts.values())
    vectorized_s = sum(p["vectorized_s"] for p in parts.values())
    return {
        "phase": "canonicalisation (dedup + group argmin + Lemma 8.1, G ∪ H)",
        "n": n,
        "reference_s": reference_s,
        "vectorized_s": vectorized_s,
        "speedup": reference_s / vectorized_s,
        "entries": int(len(src)),
        "scales": plan.needed,
        "parts": parts,
        "identical_to_reference": bool(identical),
    }


def measure_skeleton(n: int) -> Dict:
    """Join-based skeleton layer vs the frozen dense one (Lemmas 6.2-6.3).

    Theorem 1.1's first stage: Erdős–Rényi (p = 4/n) and the k-nearest
    tables of ``knearest_exact``.  The inner estimate is exact APSP on
    ``G_S``, computed once outside the timed region.
    """
    graph = erdos_renyi(n, 4.0 / n, rng_for(f"pipeline:skeleton:{n}"))
    k = params.theorem11_k0(n)
    h, i = params.choose_hop_schedule(n, k)
    knn = knearest_exact(graph, k, h, i)
    args = (graph, knn.indices, knn.values, k)
    hitting = "pipeline:skeleton:hitting-set"
    delta_gs = exact_apsp(build_skeleton(*args, rng_for(hitting)).graph)

    def new():
        skeleton = build_skeleton(*args, rng_for(hitting))
        eta, _ = extend_estimate(skeleton, delta_gs, 1.0)
        g_s = skeleton.graph
        return [g_s.edge_u, g_s.edge_v, g_s.edge_w, eta]

    def reference():
        return reference_skeleton(*args, rng_for(hitting), delta_gs)

    got, want = new(), reference()
    new_s, reference_s = best_of(new), best_of(reference)
    return {
        "phase": f"skeleton (Lemmas 6.2-6.3 build + extend, k={k})",
        "n": n,
        "reference_s": reference_s,
        "vectorized_s": new_s,
        "speedup": reference_s / new_s,
        "skeleton_nodes": len(delta_gs),
        "identical_to_reference": bool(
            all(np.array_equal(g, w) for g, w in zip(got, want))
        ),
    }


@pytest.fixture(scope="module")
def pipeline_records() -> List[Dict]:
    return profile_pipelines()


@pytest.fixture(scope="module")
def construction_records() -> List[Dict]:
    return measure_construction()


def top_phases(seconds: Dict[str, float], limit: int = 3) -> str:
    ranked = sorted(seconds.items(), key=lambda kv: -kv[1])[:limit]
    return ", ".join(f"{name} {sec * 1e3:.0f}ms" for name, sec in ranked)


def test_pipeline_phase_breakdown(pipeline_records, construction_records,
                                  results_sink, benchmark):
    # Every profiled pipeline must attribute its time to named phases.
    for record in pipeline_records:
        assert record["seconds_by_phase"], record["variant"]
        assert record["timed_s"] <= record["wall_s"] + 1e-6

    rows = [
        (
            r["variant"],
            r["n"],
            f"{r['wall_s'] * 1e3:.0f}",
            r["rounds"],
            top_phases(r["seconds_by_phase"]),
        )
        for r in pipeline_records
    ]
    table = format_table(
        ["pipeline", "n", "wall ms", "rounds", "heaviest phases"],
        rows,
        title="E18 — pipeline phase profile (claim: construction phases "
        "are array-native; wall time attributed per ledger phase)",
    )
    emit(table, sink_path=results_sink)

    construction_rows = [
        (
            r["phase"],
            r["n"],
            f"{r['reference_s'] * 1e3:.0f}",
            f"{r['vectorized_s'] * 1e3:.0f}",
            f"{r['speedup']:.2f}x",
        )
        for r in construction_records
    ]
    emit(
        format_table(
            ["construction", "n", "reference ms", "vectorized ms", "speedup"],
            construction_rows,
            title="E18 — construction layer vs frozen pre-PR references "
            "(claim: spanner >= 3x, hopset >= 2x at n=512; "
            "k-nearest >= 2.2x at n=2048; canonicalisation bit-identical)",
        ),
        sink_path=results_sink,
    )

    payload = {
        "experiment": "E18-pipeline",
        "host": host_fingerprint(),
        "sizes": list(SIZES),
        "smoke": SMOKE,
        "pipelines": [name for name, _ in PIPELINES],
        "records": pipeline_records,
        "construction": construction_records,
    }
    with open(artifact_path("BENCH_pipeline.json"), "w", encoding="utf-8") as sink:
        json.dump(payload, sink, indent=2)

    graph = workload("er-dense", SIZES[-1])
    benchmark.pedantic(
        lambda: run_variant(
            "theorem11", graph, rng_for("pipeline:bench"), ledger=RoundLedger(graph.n)
        ),
        rounds=1,
        iterations=1,
    )


def test_hopset_batched_path_identical_to_reference(construction_records):
    """The batched dijkstra must reproduce the per-vertex hopset exactly."""
    record = next(r for r in construction_records if r["phase"].startswith("hopset"))
    assert record["identical_to_reference"], record


def test_knearest_balls_identical_to_reference(construction_records):
    """Both ball-growth entry points reproduce the dense filtered power."""
    records = [r for r in construction_records if r["phase"].startswith("knearest")]
    assert len(records) == 2
    for record in records:
        assert record["identical_to_reference"], record


def test_canonicalisation_identical_to_reference(construction_records):
    """The single-key sorts and array-native G_i reproduce the lexsorts."""
    record = next(
        r for r in construction_records if r["phase"].startswith("canonicalisation")
    )
    assert record["identical_to_reference"], record


def test_skeleton_identical_to_reference(construction_records):
    """The sparse X*Y join and scattered known entries reproduce the dense
    skeleton graph and eta."""
    record = next(r for r in construction_records if r["phase"].startswith("skeleton"))
    assert record["identical_to_reference"], record


def test_json_schema(pipeline_records, construction_records):
    """Schema contract for BENCH_pipeline.json consumers (CI smoke runs this)."""
    assert len(pipeline_records) >= 3  # >= 3 registry variants profiled
    assert {r["variant"] for r in pipeline_records} == {n for n, _ in PIPELINES}
    for record in pipeline_records:
        for key in ("variant", "n", "wall_s", "timed_s", "rounds",
                    "seconds_by_phase", "rounds_by_phase"):
            assert key in record, key
        assert isinstance(record["seconds_by_phase"], dict)
    for record in construction_records:
        for key in ("phase", "n", "reference_s", "vectorized_s", "speedup"):
            assert key in record, key


@pytest.mark.skipif(SMOKE, reason="speedup ratios need the n=512 measurement")
def test_construction_speedups_at_512(construction_records):
    """Acceptance: spanner >= 3x and hopset >= 2x over the pre-PR code."""
    spanner = next(
        r for r in construction_records if r["phase"].startswith("spanner")
    )
    hopset = next(
        r for r in construction_records if r["phase"].startswith("hopset")
    )
    assert spanner["speedup"] >= 3.0, spanner
    assert hopset["speedup"] >= 2.0, hopset
    # The spanner changed RNG semantics but must keep the size contract.
    assert spanner["edges"] <= spanner["edge_bound_2x"], spanner


@pytest.mark.skipif(SMOKE, reason="the speedup ratio needs the n=2048 measurement")
def test_knearest_speedup_at_2048(construction_records):
    """Acceptance: the CSR ball growth beats the dense path >= 2.2x."""
    record = next(r for r in construction_records if r["phase"].startswith("knearest ("))
    assert record["n"] == KNEAREST_N
    assert record["speedup"] >= 2.2, record
