"""Exact distance computations (ground truth and h-hop distances).

These are the *reference* implementations the experiments compare against:
scipy's Dijkstra gives exact APSP ground truth (memoised across variants
by :class:`ExactOracleCache`), and min-plus matrix powers give exact
``h``-hop-bounded distances (Section 2.1).

The tropical products themselves (``minplus_product``/``minplus_square``)
are served by :mod:`repro.semiring.kernels` and re-exported here under
their historical names.  ``repro.semiring.kernels`` is a dependency-free
leaf module, so this import does not invert the package layering (see
DESIGN.md, "Kernel layer").
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ..semiring.kernels import minplus as minplus_product  # noqa: F401
from ..semiring.kernels import minplus_power, minplus_square  # noqa: F401
from .graph import INF, WeightedGraph


def exact_apsp(graph: WeightedGraph) -> np.ndarray:
    """Exact all-pairs distances via Dijkstra (numpy ``(n, n)`` array).

    Unreachable pairs are ``inf``.  This is the evaluation oracle; it is not
    part of the distributed algorithm.
    """
    n = graph.n
    if graph.num_edges == 0:
        out = np.full((n, n), INF)
        np.fill_diagonal(out, 0.0)
        return out
    rows = graph.edge_u
    cols = graph.edge_v
    data = graph.edge_w
    sparse = csr_matrix((data, (rows, cols)), shape=(n, n))
    return dijkstra(sparse, directed=graph.directed, indices=None)


def exact_sssp(graph: WeightedGraph, source: int) -> np.ndarray:
    """Exact single-source distances from ``source``.

    When the process-wide :data:`DEFAULT_ORACLE` already holds this
    graph's full APSP matrix, the source row is served from it instead of
    re-running Dijkstra — validation paths that follow a
    ``cached_exact_apsp`` call get their rows for free.  The returned
    array is always a fresh writable copy, whichever path produced it.
    """
    n = graph.n
    cached = DEFAULT_ORACLE.peek(graph)
    if cached is not None:
        return cached[source].copy()
    if graph.num_edges == 0:
        out = np.full(n, INF)
        out[source] = 0.0
        return out
    sparse = csr_matrix(
        (graph.edge_w, (graph.edge_u, graph.edge_v)), shape=(n, n)
    )
    return dijkstra(sparse, directed=graph.directed, indices=source)


def hop_limited_distances(matrix: np.ndarray, hops: int) -> np.ndarray:
    """Exact ``h``-hop distances: the min-plus power ``A^h``.

    ``matrix`` must have a zero diagonal, which makes powers *monotone*
    in ``h``: every path with at most ``h`` hops is also a path with at
    most ``h' >= h`` hops (pad with zero-weight self-loops), so
    ``A^{h'} <= A^h`` entrywise.  Monotonicity is why the historical
    implementation — plain repeated squaring up to the next power of two
    — was merely an *underestimate*-safe bound rather than exact: for
    ``h = 3`` it returned ``A^4``, whose entries can be strictly smaller
    than the true 3-hop distances.  This function is now exact for every
    ``h``: it delegates to :func:`repro.semiring.kernels.minplus_power`,
    whose square-and-multiply hits the requested exponent precisely.

    Parameters
    ----------
    matrix:
        ``(n, n)`` min-plus adjacency matrix (zero diagonal required).
    hops:
        Hop bound ``h >= 1``.
    """
    if hops < 1:
        raise ValueError("hop bound must be >= 1")
    return minplus_power(np.asarray(matrix, dtype=np.float64), hops)


def graph_content_hash(graph: WeightedGraph) -> str:
    """Content digest of a graph: nodes, directedness, and the edge arrays.

    Two graphs with identical edge content hash identically regardless of
    how or when they were constructed (the constructor canonicalises edge
    order and dedup), which is what lets :class:`ExactOracleCache` share
    ground truth across solver variants that each rebuild the same
    workload from the same seed.
    """
    digest = hashlib.sha256()
    digest.update(f"n={graph.n};directed={int(graph.directed)};".encode())
    digest.update(graph.edge_u.tobytes())
    digest.update(graph.edge_v.tobytes())
    digest.update(graph.edge_w.tobytes())
    return digest.hexdigest()


class ExactOracleCache:
    """LRU cache of exact APSP ground truth, keyed by graph content hash.

    Stretch certificates (``SolverConfig(validation=...)``), seed sweeps,
    and frontier tables all compare *every* variant against the same
    Dijkstra oracle; without a cache the oracle is recomputed once per
    variant per graph.  The cache is thread-safe (``solve_many`` runs
    validation from pool workers) and bounded both by entry count and by
    total bytes (the matrices are ``O(n^2)``, so a count bound alone
    would let large-``n`` batches pin gigabytes); LRU eviction enforces
    both.  Returned matrices are marked read-only so a cache hit can be
    shared safely across callers.
    """

    def __init__(
        self, max_entries: int = 64, max_bytes: int = 256 * 2**20
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.hits = 0
        self.misses = 0
        self._store: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._store)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by cached matrices."""
        return self._bytes

    def peek(self, graph: WeightedGraph) -> Optional[np.ndarray]:
        """The cached APSP matrix for ``graph``, or ``None`` — never computes.

        Lets cheap consumers (:func:`exact_sssp` serving one row) reuse
        ground truth someone already paid for without forcing an
        ``O(n^2 log n)`` Dijkstra when nobody did.  Counts a hit when the
        matrix is present; a miss is *not* counted (nothing was computed).
        """
        key = graph_content_hash(graph)
        with self._lock:
            cached = self._store.get(key)
            if cached is not None:
                self._store.move_to_end(key)
                self.hits += 1
            return cached

    def get(self, graph: WeightedGraph) -> np.ndarray:
        """Exact APSP for ``graph``, computed at most once per content.

        The returned array is read-only; take a copy before mutating.
        """
        key = graph_content_hash(graph)
        with self._lock:
            cached = self._store.get(key)
            if cached is not None:
                self._store.move_to_end(key)
                self.hits += 1
                return cached
        # Dijkstra runs outside the lock: concurrent misses on *different*
        # graphs must not serialise (a duplicated miss on the same graph
        # merely wastes one computation and is resolved on insert).
        dist = exact_apsp(graph)
        dist.setflags(write=False)
        with self._lock:
            existing = self._store.get(key)
            if existing is not None:
                self.hits += 1
                return existing
            self.misses += 1
            self._store[key] = dist
            self._bytes += dist.nbytes
            # Evict LRU-first until both bounds hold again.  A single
            # matrix larger than max_bytes is kept alone (evicting it
            # immediately would just thrash on every get).
            while len(self._store) > self.max_entries or (
                self._bytes > self.max_bytes and len(self._store) > 1
            ):
                _, evicted = self._store.popitem(last=False)
                self._bytes -= evicted.nbytes
        return dist

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0


#: Process-wide oracle shared by the solver facade, the CLI, the sweep
#: runner, and the benchmark harness.
DEFAULT_ORACLE = ExactOracleCache()


def cached_exact_apsp(graph: WeightedGraph) -> np.ndarray:
    """:func:`exact_apsp` memoised through :data:`DEFAULT_ORACLE`.

    Returns a read-only matrix; take a copy before mutating.
    """
    return DEFAULT_ORACLE.get(graph)


def weighted_diameter(graph: WeightedGraph) -> float:
    """Maximum finite pairwise distance (inf if disconnected)."""
    dist = exact_apsp(graph)
    finite = dist[np.isfinite(dist)]
    if finite.size < graph.n * graph.n:
        return float(INF)
    return float(dist.max())


def weighted_diameter_from_matrix(dist: np.ndarray) -> float:
    """Weighted diameter given a distance matrix (inf if disconnected)."""
    if not np.all(np.isfinite(dist)):
        return float(INF)
    return float(dist.max())


def hop_diameter(graph: WeightedGraph) -> int:
    """Maximum over connected pairs of the minimum hop count between them."""
    n = graph.n
    unit = np.full((n, n), INF)
    np.fill_diagonal(unit, 0.0)
    if graph.num_edges:
        np.minimum.at(unit, (graph.edge_u, graph.edge_v), 1.0)
        if not graph.directed:
            np.minimum.at(unit, (graph.edge_v, graph.edge_u), 1.0)
    sparse = csr_matrix(
        (np.ones(graph.num_edges), (graph.edge_u, graph.edge_v)), shape=(n, n)
    )
    hops = dijkstra(sparse, directed=graph.directed, unweighted=True)
    finite = hops[np.isfinite(hops)]
    return int(finite.max(initial=0))


def is_connected(graph: WeightedGraph) -> bool:
    """Whether every ordered pair is connected (strongly, if directed)."""
    return bool(np.all(np.isfinite(exact_apsp(graph))))


def shortest_path_hop_bound(
    graph: WeightedGraph,
    dist: Optional[np.ndarray] = None,
    max_hops: Optional[int] = None,
) -> np.ndarray:
    """Minimum hops of a *shortest* (minimum-length) path, per pair.

    ``out[u, v]`` is the smallest ``h`` with ``A^h[u, v] == d(u, v)``
    (``inf`` for disconnected pairs).  Used to verify the hopset guarantee:
    the hopset promises a ``beta``-hop shortest path in ``G ∪ H``.
    """
    matrix = graph.matrix()
    n = graph.n
    if dist is None:
        dist = exact_apsp(graph)
    limit = max_hops if max_hops is not None else n
    hops = np.full((n, n), INF)
    hops[np.isclose(matrix, dist) & np.isfinite(dist)] = 1.0
    np.fill_diagonal(hops, 0.0)
    current = np.array(matrix)
    spare = np.empty_like(current)
    h = 1
    while h < limit:
        nxt = minplus_square(current, out=spare)
        h *= 2
        newly = np.isclose(nxt, dist) & np.isfinite(dist) & ~np.isfinite(hops)
        # Binary search would be tighter; doubling gives an upper bound
        # within a factor 2, enough for bound checks.
        hops[newly] = float(h)
        current, spare = nxt, current
        if np.all(np.isfinite(hops[np.isfinite(dist)])):
            break
    return hops
