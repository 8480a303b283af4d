"""Graph and weight generators for the experiment workloads.

The paper's guarantees are worst-case; the experiments exercise them on
ensembles that stress different aspects:

* **Erdős–Rényi** — the generic dense/sparse mixing workload.
* **Grid / torus** — geometric graphs with large hop diameter.
* **Path with shortcuts ("caterpillar")** — maximal weighted diameter, the
  regime where the ``log d`` factor of Lemma 3.2 matters.
* **Preferential attachment** — heavy-tailed degrees (skewed routing loads).
* **Cluster graphs with zero-weight intra-cluster edges** — the Theorem 2.1
  workload.
* **Weight models** — uniform, exponential-ish ("heavy tail"), and
  polynomially large weights (the model's ``n^{O(1)}`` bound).

All generators take an explicit :class:`numpy.random.Generator` and return a
connected graph (a random spanning tree is always included where needed).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from .graph import WeightedGraph

WeightSampler = Callable[[np.random.Generator, int], np.ndarray]


def uniform_weights(low: int = 1, high: int = 100) -> WeightSampler:
    """Uniform integer weights in ``[low, high]``."""
    if low < 1 or high < low:
        raise ValueError("need 1 <= low <= high")

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.integers(low, high + 1, size=count).astype(np.float64)

    return sample


def heavy_tail_weights(scale: int = 10, cap: int = 10_000) -> WeightSampler:
    """Geometric-ish heavy-tailed integer weights in ``[1, cap]``.

    Exercises the weight-scaling machinery of Lemma 8.1: distances span many
    powers of two, so several scaled graphs ``G_i`` are active.
    """
    if scale < 1 or cap < 1:
        raise ValueError("scale and cap must be >= 1")

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        raw = rng.exponential(scale=scale, size=count)
        return np.clip(np.ceil(np.exp(raw / scale * math.log(cap) / 4)), 1, cap)

    return sample


def polynomial_weights(n: int, exponent: float = 2.0) -> WeightSampler:
    """Weights up to ``n**exponent`` (the model's polynomial bound)."""
    cap = max(2, int(n**exponent))

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.integers(1, cap, size=count).astype(np.float64)

    return sample


def unit_weights() -> WeightSampler:
    """All weights 1 (the unweighted case discussed in Section 1)."""

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        return np.ones(count, dtype=np.float64)

    return sample


def _random_spanning_tree_edges(
    n: int, rng: np.random.Generator
) -> List[Tuple[int, int]]:
    """A uniform-ish random spanning tree (random attachment order)."""
    order = rng.permutation(n)
    edges = []
    for index in range(1, n):
        parent = order[rng.integers(0, index)]
        edges.append((int(order[index]), int(parent)))
    return edges


def erdos_renyi(
    n: int,
    p: float,
    rng: np.random.Generator,
    weights: Optional[WeightSampler] = None,
    connected: bool = True,
) -> WeightedGraph:
    """G(n, p) with sampled weights; connected by default (adds a tree)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    weights = weights or uniform_weights()
    u, v = _bernoulli_pairs(n, p, rng)
    if connected:
        tree = np.asarray(_random_spanning_tree_edges(n, rng), dtype=np.int64)
        tree = tree.reshape(-1, 2)
        u, v = np.concatenate([u, tree[:, 0]]), np.concatenate([v, tree[:, 1]])
    w = np.asarray(weights(rng, len(u)), dtype=np.float64)
    return WeightedGraph.from_arrays(n, u, v, w)


def _bernoulli_pairs(
    n: int, p: float, rng: np.random.Generator, block: int = 1 << 20
) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs ``u < v`` kept with probability ``p``, in row-major order.

    One uniform per pair, drawn in row blocks of about ``block`` pairs:
    the same draws, in the same order, as one bulk ``rng.random`` over
    ``np.triu_indices(n, 1)``, and the generator ends in the same state,
    but memory stays ``O(block + edges)`` rather than ``O(n²)``.
    """
    length = np.arange(n - 1, 0, -1, dtype=np.int64)  # pairs in row r
    ends = np.cumsum(length)
    us = [np.zeros(0, dtype=np.int64)]
    vs = [np.zeros(0, dtype=np.int64)]
    start = 0
    while start < n - 1:
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + block, "right")))
        hits = np.flatnonzero(rng.random(int(ends[stop - 1]) - base) < p)
        row = start + np.searchsorted(ends[start:stop] - base, hits, "right")
        first = ends[row] - length[row] - base  # row's first draw in the block
        us.append(row)
        vs.append(row + 1 + hits - first)
        start = stop
    return np.concatenate(us), np.concatenate(vs)


def grid_graph(
    side: int,
    rng: np.random.Generator,
    weights: Optional[WeightSampler] = None,
    torus: bool = False,
) -> WeightedGraph:
    """``side x side`` grid (optionally wrapped into a torus)."""
    if side < 2:
        raise ValueError("side must be >= 2")
    weights = weights or uniform_weights()
    n = side * side
    pairs: List[Tuple[int, int]] = []
    for r in range(side):
        for c in range(side):
            node = r * side + c
            if c + 1 < side:
                pairs.append((node, node + 1))
            elif torus:
                pairs.append((node, r * side))
            if r + 1 < side:
                pairs.append((node, node + side))
            elif torus:
                pairs.append((node, c))
    w = weights(rng, len(pairs))
    edges = [(u, v, float(wt)) for (u, v), wt in zip(pairs, w)]
    return WeightedGraph(n, edges)


def path_with_shortcuts(
    n: int,
    rng: np.random.Generator,
    shortcut_count: int = 0,
    weights: Optional[WeightSampler] = None,
) -> WeightedGraph:
    """A path plus a few random shortcuts — the large-diameter workload.

    With heavy weights this maximizes the weighted diameter ``d``, stressing
    the ``O(a log d)`` hop bound of Lemma 3.2.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    weights = weights or uniform_weights()
    pairs = [(i, i + 1) for i in range(n - 1)]
    for _ in range(shortcut_count):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pairs.append((int(min(u, v)), int(max(u, v))))
    w = weights(rng, len(pairs))
    edges = [(u, v, float(wt)) for (u, v), wt in zip(pairs, w)]
    return WeightedGraph(n, edges)


def preferential_attachment(
    n: int,
    m: int,
    rng: np.random.Generator,
    weights: Optional[WeightSampler] = None,
) -> WeightedGraph:
    """Barabási–Albert-style heavy-tailed graph (each node attaches to m)."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    weights = weights or uniform_weights()
    pairs: List[Tuple[int, int]] = []
    targets = [0]
    for node in range(1, n):
        chosen = set()
        for _ in range(min(m, node)):
            pick = int(targets[rng.integers(0, len(targets))])
            chosen.add(pick)
        for pick in chosen:
            pairs.append((pick, node))
            targets.append(pick)
            targets.append(node)
    w = weights(rng, len(pairs))
    edges = [(u, v, float(wt)) for (u, v), wt in zip(pairs, w)]
    return WeightedGraph(n, edges)


def clustered_zero_weight_graph(
    clusters: int,
    cluster_size: int,
    rng: np.random.Generator,
    inter_weights: Optional[WeightSampler] = None,
) -> WeightedGraph:
    """Clusters joined by weighted edges; intra-cluster edges weigh zero.

    The Theorem 2.1 workload: connected components of the zero-weight
    subgraph must be compressed before running the main algorithm.
    """
    if clusters < 1 or cluster_size < 1:
        raise ValueError("need clusters >= 1 and cluster_size >= 1")
    inter_weights = inter_weights or uniform_weights()
    n = clusters * cluster_size
    edges: List[Tuple[int, int, float]] = []
    for c in range(clusters):
        base = c * cluster_size
        members = list(range(base, base + cluster_size))
        rng.shuffle(members)
        for a, b in zip(members, members[1:]):
            edges.append((a, b, 0.0))
        # A few extra zero edges inside the cluster.
        for _ in range(cluster_size // 2):
            a, b = rng.integers(base, base + cluster_size, size=2)
            if a != b:
                edges.append((int(a), int(b), 0.0))
    inter_pairs: List[Tuple[int, int]] = []
    for c in range(1, clusters):
        previous = int(rng.integers(0, c))
        a = int(rng.integers(0, cluster_size)) + previous * cluster_size
        b = int(rng.integers(0, cluster_size)) + c * cluster_size
        inter_pairs.append((a, b))
    for _ in range(clusters):
        c1, c2 = rng.integers(0, clusters, size=2)
        if c1 != c2:
            a = int(rng.integers(0, cluster_size)) + int(c1) * cluster_size
            b = int(rng.integers(0, cluster_size)) + int(c2) * cluster_size
            inter_pairs.append((a, b))
    w = inter_weights(rng, len(inter_pairs))
    edges.extend(
        (u, v, float(wt)) for (u, v), wt in zip(inter_pairs, w)
    )
    return WeightedGraph(n, edges, require_positive=False)


def random_regularish(
    n: int,
    degree: int,
    rng: np.random.Generator,
    weights: Optional[WeightSampler] = None,
) -> WeightedGraph:
    """Roughly ``degree``-regular graph: union of random perfect matchings."""
    if degree < 1 or n < 2:
        raise ValueError("need n >= 2 and degree >= 1")
    weights = weights or uniform_weights()
    pairs: set = set()
    for _ in range(degree):
        perm = rng.permutation(n)
        for i in range(0, n - 1, 2):
            a, b = int(perm[i]), int(perm[i + 1])
            pairs.add((min(a, b), max(a, b)))
    pairs.update(
        (min(a, b), max(a, b)) for a, b in _random_spanning_tree_edges(n, rng)
    )
    pair_list = sorted(pairs)
    w = weights(rng, len(pair_list))
    edges = [(u, v, float(wt)) for (u, v), wt in zip(pair_list, w)]
    return WeightedGraph(n, edges)


def hypercube_graph(
    dimension: int,
    rng: np.random.Generator,
    weights: Optional[WeightSampler] = None,
) -> WeightedGraph:
    """The ``dimension``-dimensional hypercube (n = 2^dimension nodes).

    Log-diameter, vertex-transitive — a clean stress case for the hopset
    and skeleton constructions (every node's neighbourhood looks alike).
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    weights = weights or uniform_weights()
    n = 1 << dimension
    pairs = [
        (node, node ^ (1 << bit))
        for node in range(n)
        for bit in range(dimension)
        if node < node ^ (1 << bit)
    ]
    w = weights(rng, len(pairs))
    edges = [(u, v, float(wt)) for (u, v), wt in zip(pairs, w)]
    return WeightedGraph(n, edges)


def margulis_expander(
    side: int,
    rng: np.random.Generator,
    weights: Optional[WeightSampler] = None,
) -> WeightedGraph:
    """Margulis-style expander on ``side x side`` nodes (Z_m x Z_m).

    Each node (x, y) connects to (x+y, y), (x-y, y), (x, y+x), (x, y-x),
    (x+1, y) and (x, y+1) (mod m) — constant degree, constant expansion,
    logarithmic diameter.  Expanders are the adversarial case for
    skeleton/hitting-set sizes (neighbourhoods grow as fast as possible).
    """
    if side < 2:
        raise ValueError("side must be >= 2")
    weights = weights or uniform_weights()
    m = side
    n = m * m

    def node(x: int, y: int) -> int:
        return (x % m) * m + (y % m)

    pair_set = set()
    for x in range(m):
        for y in range(m):
            origin = node(x, y)
            for tx, ty in (
                (x + y, y),
                (x - y, y),
                (x, y + x),
                (x, y - x),
                (x + 1, y),
                (x, y + 1),
            ):
                target = node(tx, ty)
                if origin != target:
                    pair_set.add((min(origin, target), max(origin, target)))
    pairs = sorted(pair_set)
    w = weights(rng, len(pairs))
    edges = [(u, v, float(wt)) for (u, v), wt in zip(pairs, w)]
    return WeightedGraph(n, edges)


def random_geometric(
    n: int,
    radius: float,
    rng: np.random.Generator,
    weight_scale: int = 100,
) -> WeightedGraph:
    """Random geometric graph on the unit square; weights = distances.

    Nodes connect when within ``radius``; edge weights are the rounded
    Euclidean distances (times ``weight_scale``), so the shortest-path
    metric approximates the plane — the workload where greedy routing
    from estimates behaves best.  A spanning tree on nearest neighbours
    keeps it connected.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if radius <= 0:
        raise ValueError("radius must be positive")
    points = rng.random((n, 2))
    diff = points[:, None, :] - points[None, :, :]
    distance = np.sqrt((diff**2).sum(axis=2))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if distance[i, j] <= radius:
                pairs.append((i, j))
    # connectivity: link each node to its nearest neighbour
    nearest = np.argsort(distance + np.eye(n) * 10, axis=1)[:, 0]
    for i in range(n):
        j = int(nearest[i])
        pairs.append((min(i, j), max(i, j)))
    pair_set = sorted(set(pairs))
    edges = [
        (u, v, float(max(1, round(distance[u, v] * weight_scale))))
        for u, v in pair_set
    ]
    graph = WeightedGraph(n, edges)
    # geometric graphs can still split into clusters; bridge components
    # through a random spanning tree if needed.
    from .distances import is_connected

    if not is_connected(graph):
        extra = _random_spanning_tree_edges(n, rng)
        edges.extend(
            (min(u, v), max(u, v), float(max(1, round(distance[u, v] * weight_scale))))
            for u, v in extra
        )
        graph = WeightedGraph(n, edges)
    return graph


def directed_ring_with_chords(
    n: int,
    chords: int,
    rng: np.random.Generator,
    weights: Optional[WeightSampler] = None,
) -> WeightedGraph:
    """A directed cycle plus random directed chords.

    The directed workload for Sections 4 and 5 (both lemmas hold for
    directed graphs): strongly connected by construction, asymmetric
    distances through the chord shortcuts.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    weights = weights or uniform_weights()
    pairs = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(chords):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pairs.append((int(u), int(v)))
    w = weights(rng, len(pairs))
    edges = [(u, v, float(wt)) for (u, v), wt in zip(pairs, w)]
    return WeightedGraph(n, edges, directed=True)
