"""Weighted graph container used throughout the reproduction.

The paper's input is a simple weighted graph on ``n`` nodes with polynomially
bounded positive integer weights (Section 2.1); zero weights are handled by
the Theorem 2.1 reduction.  :class:`WeightedGraph` stores the edge list in
numpy arrays and exposes the matrix views the algorithms need:

* a dense weighted adjacency matrix over the min-plus semiring
  (``np.inf`` = no edge, ``0`` on the diagonal), and
* per-node sorted outgoing edge lists (for the "k shortest outgoing edges"
  steps of Sections 4 and 5).

Graphs may be directed (Sections 4 and 5 hold for directed graphs) or
undirected (everything else).  Weights are kept as float64 for numpy
compatibility, but construction validates integrality by default.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .adjacency import CSRAdjacency, build_csr, min_dedup_edges

INF = np.inf


class GraphError(ValueError):
    """Invalid graph construction or query."""


class WeightedGraph:
    """A weighted graph on nodes ``0 .. n-1`` backed by numpy edge arrays.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        Iterable of ``(u, v, w)`` triples.  For undirected graphs each edge
        should appear once; both orientations are stored internally.
    directed:
        Whether the graph is directed.
    require_positive:
        Enforce strictly positive weights (the paper's standing assumption;
        disable only for the zero-weight machinery of Theorem 2.1).
    require_integer:
        Enforce integral weights (Section 2.1).  Scaled graphs produced by
        Lemma 8.1 remain integral; disable for experimentation only.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int, float]] = (),
        directed: bool = False,
        require_positive: bool = True,
        require_integer: bool = True,
    ) -> None:
        if n < 1:
            raise GraphError("graph needs at least one node")
        self.n = int(n)
        self.directed = bool(directed)
        triples = list(edges)
        if triples:
            u = np.asarray([t[0] for t in triples], dtype=np.int64)
            v = np.asarray([t[1] for t in triples], dtype=np.int64)
            w = np.asarray([t[2] for t in triples], dtype=np.float64)
        else:
            u = np.zeros(0, dtype=np.int64)
            v = np.zeros(0, dtype=np.int64)
            w = np.zeros(0, dtype=np.float64)
        self._init_from_arrays(u, v, w, require_positive, require_integer)

    def _init_from_arrays(
        self,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        require_positive: bool,
        require_integer: bool,
    ) -> None:
        """Canonicalise edge arrays: validate, drop loops, dedup, sort.

        The stored ``edge_u/v/w`` are owned by the graph and read-only.
        """
        self._validate(u, v, w, require_positive, require_integer)
        # Deduplicate parallel edges keeping the minimum weight, and drop
        # self-loops (they never shorten any path with nonnegative weights).
        keep = u != v
        u, v, w = u[keep], v[keep], w[keep]
        if not self.directed and len(u):
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            u, v = lo, hi
        u, v, w = min_dedup_edges(u, v, w)
        # The boolean mask above copied the caller's arrays, and the copies
        # are frozen: a graph never shares a writable buffer with anyone.
        for arr in (u, v, w):
            arr.setflags(write=False)
        self.edge_u = u
        self.edge_v = v
        self.edge_w = w
        self._matrix_cache: Optional[np.ndarray] = None
        self._adj_cache: Optional[List[List[Tuple[int, float]]]] = None
        self._csr_cache: Optional[CSRAdjacency] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_arrays(
        cls,
        n: int,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_w: np.ndarray,
        directed: bool = False,
        require_positive: bool = True,
        require_integer: bool = True,
    ) -> "WeightedGraph":
        """Build a graph from parallel edge arrays without a Python loop.

        The array-native constructor the construction layer uses: same
        canonicalisation (loop drop, min-dedup, sort) as the triple-list
        constructor, but no per-edge tuple materialisation — building a
        100k-edge hopset this way is ~50x cheaper.
        """
        if n < 1:
            raise GraphError("graph needs at least one node")
        graph = cls.__new__(cls)
        graph.n = int(n)
        graph.directed = bool(directed)
        u = np.ascontiguousarray(edge_u, dtype=np.int64)
        v = np.ascontiguousarray(edge_v, dtype=np.int64)
        w = np.ascontiguousarray(edge_w, dtype=np.float64)
        if not (u.shape == v.shape == w.shape) or u.ndim != 1:
            raise GraphError("edge arrays must be 1-D and of equal length")
        graph._init_from_arrays(u, v, w, require_positive, require_integer)
        return graph

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        directed: bool = False,
        require_positive: bool = True,
        require_integer: bool = True,
    ) -> "WeightedGraph":
        """Build a graph from a weighted adjacency matrix (inf = no edge)."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise GraphError("adjacency matrix must be square")
        n = matrix.shape[0]
        rows, cols = np.nonzero(np.isfinite(matrix) & ~np.eye(n, dtype=bool))
        if not directed:
            keep = rows < cols
            rows, cols = rows[keep], cols[keep]
        return cls.from_arrays(
            n,
            rows,
            cols,
            matrix[rows, cols],
            directed=directed,
            require_positive=require_positive,
            require_integer=require_integer,
        )

    def _validate(
        self,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        require_positive: bool,
        require_integer: bool,
    ) -> None:
        if len(u) == 0:
            return
        if u.min(initial=0) < 0 or v.min(initial=0) < 0:
            raise GraphError("negative node id")
        if u.max(initial=0) >= self.n or v.max(initial=0) >= self.n:
            raise GraphError("node id out of range")
        if not np.all(np.isfinite(w)):
            raise GraphError("edge weights must be finite")
        if require_positive and np.any(w <= 0):
            raise GraphError(
                "edge weights must be positive integers; use the Theorem 2.1 "
                "reduction (repro.core.zero_weights) for zero weights"
            )
        if not require_positive and np.any(w < 0):
            raise GraphError("negative edge weights are not supported")
        if require_integer and np.any(w != np.floor(w)):
            raise GraphError("edge weights must be integers (Section 2.1)")

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def num_edges(self) -> int:
        """Number of stored edges (undirected edges counted once)."""
        return len(self.edge_w)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over ``(u, v, w)`` triples (one per undirected edge)."""
        for u, v, w in zip(self.edge_u, self.edge_v, self.edge_w):
            yield int(u), int(v), float(w)

    def matrix(self) -> np.ndarray:
        """Dense min-plus adjacency matrix: ``A[v, v] = 0``, inf = no edge.

        The matrix is cached; callers must not mutate it (take a copy).
        """
        if self._matrix_cache is None:
            mat = np.full((self.n, self.n), INF, dtype=np.float64)
            np.fill_diagonal(mat, 0.0)
            if len(self.edge_u):
                np.minimum.at(mat, (self.edge_u, self.edge_v), self.edge_w)
                if not self.directed:
                    np.minimum.at(mat, (self.edge_v, self.edge_u), self.edge_w)
            self._matrix_cache = mat
        return self._matrix_cache

    def csr(self) -> CSRAdjacency:
        """The cached CSR adjacency view (rows sorted by ``(weight, id)``).

        This is the array-native face of :meth:`adjacency`: same content,
        same (weight, neighbour-ID) order per row, but as ``indptr`` /
        ``indices`` / ``weights`` arrays built once per graph.  The
        construction layer (spanners, hopsets, skeletons) works on this
        view; the returned arrays are read-only.
        """
        if self._csr_cache is None:
            self._csr_cache = build_csr(
                self.n, self.edge_u, self.edge_v, self.edge_w, self.directed
            )
        return self._csr_cache

    def adjacency(self) -> List[List[Tuple[int, float]]]:
        """Outgoing adjacency lists sorted by (weight, neighbour id).

        The sort order matches the paper's tie-breaking convention (smallest
        weight first, then smallest ID), so ``adjacency()[u][:k]`` is exactly
        the "k shortest outgoing edges of u" of Sections 4 and 5.

        Kept for per-vertex consumers (the message-level simulator, the
        routing tables); bulk algorithms should use :meth:`csr` instead.
        """
        if self._adj_cache is None:
            csr = self.csr()
            indices = csr.indices.tolist()
            weights = csr.weights.tolist()
            bounds = csr.indptr.tolist()
            self._adj_cache = [
                list(zip(indices[bounds[u]:bounds[u + 1]],
                         weights[bounds[u]:bounds[u + 1]]))
                for u in range(self.n)
            ]
        return self._adj_cache

    def out_degree(self, u: int) -> int:
        """Number of outgoing edges of ``u``."""
        return len(self.adjacency()[u])

    def k_shortest_out_edges(self, u: int, k: int) -> List[Tuple[int, float]]:
        """The ``k`` smallest-weight outgoing edges of ``u`` (ID tie-break)."""
        return self.adjacency()[u][: max(0, int(k))]

    def max_weight(self) -> float:
        """Largest edge weight (0 for an empty graph)."""
        return float(self.edge_w.max(initial=0.0))

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def union(self, other: "WeightedGraph") -> "WeightedGraph":
        """Union ``G ∪ H`` keeping minimum weights on parallel edges.

        Used for augmenting the input with a hopset.  Directedness must
        match.  Hopset edges may repeat graph edges; the dedup keeps the
        lighter copy, which preserves all distances.
        """
        if other.n != self.n:
            raise GraphError("union requires graphs on the same node set")
        if other.directed != self.directed:
            raise GraphError("union requires matching directedness")
        return WeightedGraph.from_arrays(
            self.n,
            np.concatenate([self.edge_u, other.edge_u]),
            np.concatenate([self.edge_v, other.edge_v]),
            np.concatenate([self.edge_w, other.edge_w]),
            directed=self.directed,
            require_positive=False,
            require_integer=False,
        )

    def subgraph_edges(self, mask: np.ndarray) -> "WeightedGraph":
        """Graph with only the edges selected by a boolean ``mask``."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.edge_w.shape:
            raise GraphError("mask length must equal the number of edges")
        return WeightedGraph.from_arrays(
            self.n,
            self.edge_u[mask],
            self.edge_v[mask],
            self.edge_w[mask],
            directed=self.directed,
            require_positive=False,
            require_integer=False,
        )

    def scale_weights(self, factor: float) -> "WeightedGraph":
        """Graph with every weight multiplied by ``factor`` (> 0)."""
        if factor <= 0:
            raise GraphError("scale factor must be positive")
        return WeightedGraph.from_arrays(
            self.n,
            self.edge_u,
            self.edge_v,
            self.edge_w * factor,
            directed=self.directed,
            require_positive=False,
            require_integer=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        return f"WeightedGraph(n={self.n}, m={self.num_edges}, {kind})"
