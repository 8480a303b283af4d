"""The distance-oracle artifact: precompute once, answer queries forever.

A :class:`DistanceOracle` packages what the query plane needs from one
``(graph, ApspResult)`` pair:

* ``estimate`` — the ``(n, n)`` approximate distance matrix,
* ``next_hop`` — the vectorized greedy forwarding table
  (:func:`repro.core.routing_tables.next_hop_table`),
* ``hop_weight`` — ``w(u, next_hop[u, t])``, the edge weight each
  forwarding step pays, gathered once at build time so batch routing
  never touches the graph again,
* ``meta`` — JSON-safe provenance: the graph content hash (the same key
  :class:`repro.graphs.ExactOracleCache` uses), variant, factor, seed.

Persistence reuses the compact base64 matrix codec from
:mod:`repro.api` (``matrix_encoding="b64"``; the human-readable
``"list"`` encoding also round-trips), so a solved instance can be
shipped to a serving tier and reloaded bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import weakref
from dataclasses import dataclass, field
from shutil import rmtree
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..api import (
    MATRIX_ENCODINGS,
    ArtifactIntegrityError,
    _check_estimate,
    _decode_matrix,
    _jsonable,
    _matrix_to_b64,
    _matrix_to_jsonable,
)
from ..core.results import Estimate
from ..core.routing_tables import next_hop_table
from ..graphs.distances import graph_content_hash
from ..graphs.graph import WeightedGraph
from ..semiring.minplus import k_smallest_in_rows

#: Format tag stored in every serialized oracle payload.
ORACLE_FORMAT = "repro.distance-oracle"
ORACLE_VERSION = 1


def _check_forwarding(next_hop: np.ndarray, hop_weight: np.ndarray) -> None:
    """Reject a table that could route off the node range or in silence.

    Every ``next_hop`` entry must be a node id or the ``-1`` sentinel, and
    ``hop_weight`` must be finite and nonnegative exactly where a live hop
    exists.
    """
    n = next_hop.shape[0]
    out_of_range = np.argwhere((next_hop < -1) | (next_hop >= n))
    if out_of_range.size:
        u, t = (int(v) for v in out_of_range[0])
        raise ArtifactIntegrityError(
            f"next_hop[{u}, {t}] = {int(next_hop[u, t])} is outside [-1, {n}) "
            f"({len(out_of_range)} bad entries)"
        )
    mismatch = np.argwhere((next_hop >= 0) != np.isfinite(hop_weight))
    if mismatch.size:
        u, t = (int(v) for v in mismatch[0])
        raise ArtifactIntegrityError(
            f"hop_weight[{u}, {t}] = {float(hop_weight[u, t])} disagrees with "
            f"next_hop[{u}, {t}] = {int(next_hop[u, t])}: weights must be "
            f"finite exactly on live hops ({len(mismatch)} bad entries)"
        )
    negative = np.argwhere((next_hop >= 0) & (hop_weight < 0))
    if negative.size:
        u, t = (int(v) for v in negative[0])
        raise ArtifactIntegrityError(
            f"hop_weight[{u}, {t}] = {float(hop_weight[u, t])} is negative on "
            f"a live hop ({len(negative)} bad entries)"
        )


def _memmap_backed(array: np.ndarray) -> bool:
    """Whether ``array`` (or any base it views) is an ``np.memmap``."""
    seen: Optional[np.ndarray] = array
    while seen is not None:
        if isinstance(seen, np.memmap):
            return True
        seen = getattr(seen, "base", None)
    return False


@dataclass
class DistanceOracle:
    """An immutable query-plane artifact built from one solved instance.

    All three arrays are frozen (read-only) at construction; queries
    return fresh arrays.  Build through :meth:`build` (or
    ``ApspResult.oracle(graph)``) rather than the raw constructor.
    """

    estimate: np.ndarray  # (n, n) float64
    next_hop: np.ndarray  # (n, n) int64, -1 = no neighbour
    hop_weight: np.ndarray  # (n, n) float64, inf where next_hop == -1
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = np.asarray(self.estimate).shape[0]
        for name in ("estimate", "next_hop", "hop_weight"):
            array = np.asarray(getattr(self, name))
            if array.shape != (n, n):
                raise ValueError(
                    f"{name} must be (n, n); got {array.shape} vs n={n}"
                )
            # Freeze a *view*, not the caller's array: the oracle's handles
            # are read-only without flipping flags on data it doesn't own.
            view = array.view()
            view.setflags(write=False)
            setattr(self, name, view)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        graph: WeightedGraph,
        source: Union[Estimate, np.ndarray],
        meta: Optional[Mapping[str, Any]] = None,
        chunk_elems: Optional[int] = None,
        memmap_dir: Optional[str] = None,
    ) -> "DistanceOracle":
        """Assemble the artifact from a graph and an estimate.

        ``source`` is an :class:`~repro.core.results.Estimate` (including
        :class:`~repro.api.ApspResult`) or a bare ``(n, n)`` matrix.
        Provenance available on the source (variant, factor, seed) lands
        in ``meta``; explicit ``meta`` entries win.

        Construction is row-sharded: the forwarding table *and* the
        per-hop edge weights come out of one chunked
        :func:`next_hop_table` pass over the CSR adjacency, so nothing
        beyond the three output matrices is ever materialised —
        ``chunk_elems`` bounds the resident score tensors.  With
        ``memmap_dir`` the two derived ``(n, n)`` outputs are backed by
        memmap files under a fresh subdirectory there (removed when the
        oracle is garbage-collected), and a float32 or memmap-backed
        ``source`` estimate is adopted as-is instead of being copied to
        a dense float64 array — the out-of-core build path for
        ``n >= 4096``.

        Raises :class:`ArtifactIntegrityError` when the estimate holds a
        negative or NaN entry or a nonzero diagonal, which
        :meth:`from_dict` would refuse to load.
        """
        if isinstance(source, Estimate):
            raw = np.asarray(source.estimate)
        else:
            raw = np.asarray(source)
        n = graph.n
        if raw.shape != (n, n):
            raise ValueError(
                f"estimate must be ({n}, {n}); got {raw.shape}"
            )
        _check_estimate(raw)
        if raw.dtype == np.float32 or _memmap_backed(raw):
            # Out-of-core policy: adopt without densifying to float64 —
            # copying would defeat the point of the compact estimate.
            estimate = raw
        else:
            estimate = np.array(raw, dtype=np.float64)
        cleanup_dir: Optional[str] = None
        if memmap_dir is None:
            table = np.full((n, n), -1, dtype=np.int64)
            hop_weight = np.full((n, n), np.inf, dtype=np.float64)
        else:
            cleanup_dir = tempfile.mkdtemp(prefix="oracle-", dir=memmap_dir)
            table = np.memmap(
                os.path.join(cleanup_dir, "next_hop.bin"),
                dtype=np.int64, mode="w+", shape=(n, n),
            )
            hop_weight = np.memmap(
                os.path.join(cleanup_dir, "hop_weight.bin"),
                dtype=np.float64, mode="w+", shape=(n, n),
            )
        next_hop_table(
            graph, estimate, chunk_elems=chunk_elems,
            out=table, hop_weight_out=hop_weight,
        )
        info: Dict[str, Any] = {
            "n": int(n),
            "graph_hash": graph_content_hash(graph),
            "directed": bool(graph.directed),
        }
        if estimate.dtype != np.float64:
            info["estimate_dtype"] = str(estimate.dtype)
        if isinstance(source, Estimate):
            info["factor"] = float(source.factor)
            variant = getattr(source, "variant", "")
            if variant:
                info["variant"] = str(variant)
            seed = getattr(source, "seed", None)
            if seed is not None:
                info["seed"] = int(seed)
        if meta:
            info.update(meta)
        oracle = cls(
            estimate=estimate,
            next_hop=table,
            hop_weight=hop_weight,
            meta=_jsonable(info),
        )
        if cleanup_dir is not None:
            weakref.finalize(oracle, rmtree, cleanup_dir, ignore_errors=True)
        return oracle

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        return self.estimate.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes held by the three matrices (the store's budget unit)."""
        return (
            self.estimate.nbytes + self.next_hop.nbytes + self.hop_weight.nbytes
        )

    @property
    def resident_nbytes(self) -> int:
        """Bytes actually resident in RAM — memmap-backed matrices count 0.

        :class:`~repro.serve.store.OracleStore` charges this (not
        ``nbytes``) against its byte budget, so out-of-core artifacts are
        billed for what they really occupy; float32 estimates are billed
        at half rate through ``nbytes`` itself.
        """
        return sum(
            array.nbytes
            for array in (self.estimate, self.next_hop, self.hop_weight)
            if not _memmap_backed(array)
        )

    @property
    def factor(self) -> float:
        """Declared approximation factor (``nan`` when unknown)."""
        return float(self.meta.get("factor", float("nan")))

    def describe(self) -> Dict[str, Any]:
        """JSON-safe one-line summary (what a serving tier logs/exposes)."""
        return {
            "n": self.n,
            "variant": str(self.meta.get("variant", "")),
            "seed": self.meta.get("seed"),
            "factor": self.factor if np.isfinite(self.factor) else None,
            "graph_hash": str(self.meta.get("graph_hash", "")),
            "nbytes": int(self.nbytes),
            "resident_nbytes": int(self.resident_nbytes),
            "estimate_dtype": str(self.estimate.dtype),
        }

    def content_key(self) -> str:
        """Digest of the artifact content — stable across save/load."""
        digest = hashlib.sha256()
        digest.update(f"{ORACLE_FORMAT};v{ORACLE_VERSION};n={self.n};".encode())
        digest.update(self.estimate.tobytes())
        digest.update(self.next_hop.tobytes())
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        variant = self.meta.get("variant", "?")
        return (
            f"DistanceOracle(n={self.n}, variant={variant!r}, "
            f"factor={self.factor:.3g}, {self.nbytes / 2**20:.1f} MiB)"
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def _check_nodes(self, nodes: np.ndarray, label: str) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.n):
            raise ValueError(f"{label} out of range [0, {self.n})")
        return nodes

    def distance(self, source: int, target: int) -> float:
        """Estimated distance for one pair."""
        return float(self.query_many([source], [target])[0])

    def query_many(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
    ) -> np.ndarray:
        """Estimated distances for many pairs at once.

        ``sources`` and ``targets`` broadcast against each other (one
        source against many targets works); the result is a fresh float64
        array of the broadcast shape.
        """
        sources = self._check_nodes(sources, "sources")
        targets = self._check_nodes(targets, "targets")
        sources, targets = np.broadcast_arrays(sources, targets)
        # The gather is already a fresh array; the cast is a no-op for
        # float64 estimates and upcasts float32 ones exactly.
        return np.asarray(self.estimate[sources, targets], dtype=np.float64)

    def k_nearest(
        self,
        k: int,
        sources: Optional[Sequence[int]] = None,
        include_self: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest nodes per source by estimated distance.

        Rides :func:`repro.semiring.minplus.k_smallest_in_rows` (node-ID
        tie-break, ``(-1, inf)`` padding).  ``sources=None`` answers for
        every node.  ``include_self=False`` (default) excludes the zero
        self-distance.
        """
        if sources is None:
            row_ids = np.arange(self.n, dtype=np.int64)
        else:
            row_ids = self._check_nodes(sources, "sources").reshape(-1)
        rows = np.array(self.estimate[row_ids], dtype=np.float64)
        if not include_self:
            rows[np.arange(len(row_ids)), row_ids] = np.inf
        return k_smallest_in_rows(rows, k)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_dict(self, matrix_encoding: str = "b64") -> Dict[str, Any]:
        """Serializable payload; ``"b64"`` (compact, default) or ``"list"``."""
        if matrix_encoding not in MATRIX_ENCODINGS:
            raise ValueError(
                f"matrix_encoding must be one of {MATRIX_ENCODINGS}, "
                f"got {matrix_encoding!r}"
            )
        if matrix_encoding == "b64":
            # The estimate keeps its storage dtype (float32 artifacts stay
            # half-size on the wire); the codec record carries it.
            estimate = _matrix_to_b64(self.estimate, dtype=self.estimate.dtype.str)
            next_hop = _matrix_to_b64(self.next_hop, dtype="<i8")
            hop_weight = _matrix_to_b64(self.hop_weight)
        else:
            estimate = _matrix_to_jsonable(self.estimate)
            next_hop = self.next_hop.tolist()
            hop_weight = _matrix_to_jsonable(self.hop_weight)
        return {
            "format": ORACLE_FORMAT,
            "version": ORACLE_VERSION,
            "n": self.n,
            "meta": _jsonable(dict(self.meta)),
            # Storage dtype of the estimate, so the ``list`` encoding (which
            # serializes float64 values) can restore float32 artifacts too.
            "estimate_dtype": self.estimate.dtype.str,
            "estimate": estimate,
            "next_hop": next_hop,
            "hop_weight": hop_weight,
            # Recomputed and compared at load: catches a flipped byte that
            # still decodes to a well-formed oracle.
            "content_key": self.content_key(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DistanceOracle":
        """Decode a :meth:`to_dict` payload.

        Raises :class:`ArtifactIntegrityError` when a matrix record
        disagrees with the payload (a b64 dtype other than the declared
        one, a byte length that does not fill the shape, a shape other
        than the payload's ``(n, n)``), when the forwarding table could
        route off the node range or along a hop of unknown or negative
        weight, when the estimate holds a negative or NaN entry or a
        nonzero diagonal, or when the decoded content does not match the
        payload's ``content_key`` (payloads without one still load).  The
        checks run here, once per load, and never on the query path.
        """
        if data.get("format") != ORACLE_FORMAT:
            raise ValueError(
                f"not a distance-oracle payload: format={data.get('format')!r}"
            )
        version = int(data.get("version", ORACLE_VERSION))
        if version > ORACLE_VERSION:
            raise ValueError(
                f"oracle payload version {version} is newer than supported "
                f"version {ORACLE_VERSION}"
            )
        est_dtype = np.dtype(str(data.get("estimate_dtype", "<f8")))
        if est_dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"unsupported estimate dtype {est_dtype}")
        arrays = {
            name: _decode_matrix(data[name], dtype)
            for name, dtype in (
                ("estimate", est_dtype),
                ("next_hop", np.dtype("<i8")),
                ("hop_weight", np.dtype("<f8")),
            )
        }
        n = data.get("n")
        for name, array in arrays.items():
            if array.shape != (n, n):
                raise ArtifactIntegrityError(
                    f"{name} has shape {array.shape}; the payload declares n = {n!r}"
                )
        oracle = cls(meta=dict(data.get("meta") or {}), **arrays)
        _check_forwarding(oracle.next_hop, oracle.hop_weight)
        _check_estimate(oracle.estimate)
        key = data.get("content_key")
        if key is not None and oracle.content_key() != key:
            raise ArtifactIntegrityError(
                f"content_key mismatch: the payload declares {key!r}; its "
                "estimate or next_hop was altered after it was written"
            )
        return oracle

    def to_json(self, matrix_encoding: str = "b64", **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_dict(matrix_encoding=matrix_encoding),
                          **dumps_kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "DistanceOracle":
        return cls.from_dict(json.loads(payload))

    def save(self, path: str, matrix_encoding: str = "b64") -> None:
        """Write the artifact to ``path`` as one JSON document."""
        with open(path, "w", encoding="utf-8") as sink:
            sink.write(self.to_json(matrix_encoding=matrix_encoding))

    @classmethod
    def load(
        cls, path: str, memmap_dir: Optional[str] = None
    ) -> "DistanceOracle":
        """Read an artifact back; ``memmap_dir`` rehomes it out-of-core.

        With ``memmap_dir`` set, the decoded matrices are spilled to
        memmap files under a fresh subdirectory there (removed when the
        oracle is garbage-collected) — a serving tier can then hold a
        large reloaded oracle with near-zero resident footprint.
        """
        with open(path, "r", encoding="utf-8") as source:
            oracle = cls.from_json(source.read())
        if memmap_dir is None:
            return oracle
        return oracle.memmap_to(memmap_dir)

    def memmap_to(self, directory: str) -> "DistanceOracle":
        """A clone of this oracle backed by memmap files under ``directory``.

        Each matrix keeps its dtype (float32 estimates stay float32 on
        disk).  The backing subdirectory is tied to the clone's lifetime
        via a finalizer.
        """
        target = tempfile.mkdtemp(prefix="oracle-", dir=directory)
        arrays: Dict[str, np.ndarray] = {}
        for name in ("estimate", "next_hop", "hop_weight"):
            source = getattr(self, name)
            spilled = np.memmap(
                os.path.join(target, f"{name}.bin"),
                dtype=source.dtype, mode="w+", shape=source.shape,
            )
            spilled[...] = source
            spilled.flush()
            arrays[name] = spilled
        clone = DistanceOracle(meta=dict(self.meta), **arrays)
        weakref.finalize(clone, rmtree, target, ignore_errors=True)
        return clone


__all__ = [
    "ArtifactIntegrityError",
    "DistanceOracle",
    "ORACLE_FORMAT",
    "ORACLE_VERSION",
]
