"""The exact dense min-plus (tropical) product — the repo's hot path.

Every algorithm in the reproduction bottoms out in a dense min-plus
product: filtered powers (Section 5), skeleton products (Lemma 6.2 via
[CDKL21]), hopset limits, the exact baseline.  This module is the single
home of that product: :func:`minplus` and the helpers built on it.

One product, three exact representations.  :func:`resolve_kernel` makes
one integrality and magnitude pass over both inputs and picks the
narrowest dtype in which every sum is exact:

``float32``
    Every finite entry is an integer of magnitude ``<= 2^23``: all sums
    stay ``<= 2^24``, the float32 exact-integer limit, and ``inf`` needs
    no sentinel.  Half the memory bandwidth of float64.
``int64``
    Integer entries below ``2^51``: ``inf`` maps to a sentinel far above
    any finite sum, which maps back to ``inf`` afterwards.
``float64``
    Anything else — non-integer values, larger magnitudes, ``-inf`` or
    NaN — runs in the input's own float64 semantics.

All three run through one two-axis tiled loop and return the same bits
as the float64 broadcast formula ``(a[:, :, None] + b[None]).min(axis=1)``.

This module is a *leaf*: it imports nothing from the rest of the package
(numpy only), so both :mod:`repro.semiring` and :mod:`repro.graphs` may
depend on it without cycles.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

INF = np.inf

#: Default temporary-buffer budget (bytes) for the tiled product.  Sized so
#: the scratch tile stays L2/L3-resident; override per call or via
#: ``REPRO_MINPLUS_BUDGET``.
DEFAULT_MEMORY_BUDGET = 32 * 2**20

#: Environment variable overriding :data:`DEFAULT_MEMORY_BUDGET` (bytes).
BUDGET_ENV = "REPRO_MINPLUS_BUDGET"

#: Integer magnitudes up to this bound survive a float32 round-trip exactly
#: (sums of two entries stay <= 2^24, the float32 exact-integer limit).
_FLOAT32_EXACT_MAX = float(2**23)

#: Integer magnitudes up to this bound keep float64 *sums* exact (< 2^52),
#: so the int64 path stays bit-identical to the float64 reference.
_INT_EXACT_MAX = float(2**51)

#: Sentinel standing in for ``inf`` on the int64 path.  Any sum touching a
#: sentinel lands strictly above ``_INT_INF_THRESHOLD``; any finite sum
#: stays strictly below it (given ``_INT_EXACT_MAX``); no overflow occurs.
_INT_SENTINEL = np.int64(2**60)
_INT_INF_THRESHOLD = np.int64(2**59)


class MemoryBudgetError(ValueError):
    """``REPRO_MINPLUS_BUDGET`` is not a positive integer byte count."""


def memory_budget_from_env() -> int:
    """The scratch budget in bytes: ``REPRO_MINPLUS_BUDGET`` or the default.

    Raises :class:`MemoryBudgetError`, naming the variable and its value,
    when the variable is set to anything but an integer ``>= 1``.
    """
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_MEMORY_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise MemoryBudgetError(
            f"{BUDGET_ENV} must be a positive integer byte count; got {raw!r}"
        )
    return budget


# --------------------------------------------------------------------- #
# Representation choice
# --------------------------------------------------------------------- #


def _integral_magnitude(matrix: np.ndarray) -> Optional[float]:
    """Largest finite magnitude when every finite entry is an integer and
    every other entry is ``+inf``; ``None`` otherwise."""
    finite = np.isfinite(matrix)
    values = matrix[finite]
    if values.size != matrix.size and not np.all(matrix[~finite] == INF):
        return None  # -inf or NaN
    if not np.array_equal(np.floor(values), values):
        return None
    return float(np.abs(values).max()) if values.size else 0.0


def resolve_kernel(a: np.ndarray, b: np.ndarray) -> str:
    """The representation :func:`minplus` computes these inputs in.

    ``"float32"`` when every finite entry of both inputs is an integer of
    magnitude ``<= 2^23``, ``"int64"`` when they are integers below
    ``2^51``, and ``"float64"`` otherwise — including whenever an input
    holds ``-inf`` or NaN, which neither narrow representation can carry.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    largest = 0.0
    for matrix in (a, b):
        magnitude = _integral_magnitude(matrix)
        if magnitude is None:
            return "float64"
        largest = max(largest, magnitude)
    if largest <= _FLOAT32_EXACT_MAX:
        return "float32"
    if largest < _INT_EXACT_MAX:
        return "int64"
    # Values large enough that float64 addition itself rounds: only the
    # reference semantics are well-defined, so stay in float64.
    return "float64"


# --------------------------------------------------------------------- #
# The entry point
# --------------------------------------------------------------------- #


def _validate_out(
    out: np.ndarray, shape: Tuple[int, int], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Check a caller-provided destination buffer."""
    out = np.asarray(out)
    if out.shape != shape:
        raise ValueError(f"out must have shape {shape}; got {out.shape}")
    if out.dtype != np.float64:
        raise ValueError(f"out must be float64; got {out.dtype}")
    if not out.flags.writeable:
        raise ValueError("out must be writable")
    if np.may_share_memory(out, a) or np.may_share_memory(out, b):
        raise ValueError("out must not share memory with the operands")
    return out


def minplus(
    a: np.ndarray,
    b: np.ndarray,
    *,
    memory_budget: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Dense min-plus product ``(A * B)[i, j] = min_k (A[i,k] + B[k,j])``.

    The one function every dense tropical product in the repo routes
    through.  The result is bit-identical to the float64 broadcast
    formula; the module docstring describes the three representations.

    Parameters
    ----------
    a, b:
        Factor matrices (``inf`` = semiring zero).  Any real dtype;
        computation is exact float64 semantics.
    memory_budget:
        Scratch-buffer budget in bytes for the tiled loop; defaults to
        ``REPRO_MINPLUS_BUDGET`` or :data:`DEFAULT_MEMORY_BUDGET`.
    out:
        Optional preallocated float64 destination of shape
        ``(a.shape[0], b.shape[1])``, not aliasing the operands.  The
        result lands there (and is returned); repeated products —
        ``minplus_power``'s squaring loop — can then ping-pong two
        buffers instead of allocating an ``(n, n)`` temporary per step.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError("inner dimensions must agree")
    if out is not None:
        out = _validate_out(out, (a.shape[0], b.shape[1]), a, b)
    if a.shape[1] == 0:
        # Empty inner dimension: the min over an empty set is the
        # semiring zero (inf) everywhere.
        if out is not None:
            out.fill(INF)
            return out
        return np.full((a.shape[0], b.shape[1]), INF)
    if a.shape[0] == 0 or b.shape[1] == 0:
        if out is not None:
            return out
        return np.empty((a.shape[0], b.shape[1]), dtype=np.float64)
    if memory_budget is None:
        memory_budget = memory_budget_from_env()
    representation = resolve_kernel(a, b)
    if representation == "float32":
        out32 = _tiled_product(
            a.astype(np.float32), b.astype(np.float32), memory_budget
        )
        if out is None:
            return out32.astype(np.float64)
        np.copyto(out, out32)
        return out
    if representation == "int64":
        a64 = np.where(np.isfinite(a), a, float(_INT_SENTINEL)).astype(np.int64)
        b64 = np.where(np.isfinite(b), b, float(_INT_SENTINEL)).astype(np.int64)
        out64 = _tiled_product(a64, b64, memory_budget)
        if out is None:
            out = out64.astype(np.float64)
        else:
            np.copyto(out, out64, casting="unsafe")
        out[out64 >= _INT_INF_THRESHOLD] = INF
        return out
    return _tiled_product(a, b, memory_budget, out=out)


def minplus_square(
    matrix: np.ndarray, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """One min-plus squaring ``A -> A (*) A``."""
    return minplus(matrix, matrix, out=out)


def minplus_power(matrix: np.ndarray, exponent: int) -> np.ndarray:
    """Exact min-plus power ``A^h`` by binary exponentiation.

    Requires a zero diagonal so that ``A^h`` equals "minimum length over
    paths with at most h hops" (Section 2.1).  Square-and-multiply makes
    the exponent exact for every ``h`` (plain repeated squaring would
    overshoot to the next power of two).

    Memory discipline: each squaring and each accumulator multiply
    ping-pongs a pair of preallocated buffers through ``minplus(out=...)``
    — at most four ``(n, n)`` arrays live for the whole loop, where the
    naive form allocated a fresh product every round.
    """
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    matrix = np.asarray(matrix, dtype=np.float64)
    if np.any(np.diag(matrix) != 0):
        raise ValueError("matrix must have a zero diagonal")
    accumulator: Optional[np.ndarray] = None
    acc_spare: Optional[np.ndarray] = None
    base = np.array(matrix)
    base_spare: Optional[np.ndarray] = None
    remaining = int(exponent)
    while remaining > 0:
        if remaining & 1:
            if accumulator is None:
                accumulator = np.array(base)
            else:
                if acc_spare is None:
                    acc_spare = np.empty_like(base)
                minplus(accumulator, base, out=acc_spare)
                accumulator, acc_spare = acc_spare, accumulator
        remaining >>= 1
        if remaining:
            if base_spare is None:
                base_spare = np.empty_like(base)
            minplus(base, base, out=base_spare)
            base, base_spare = base_spare, base
    assert accumulator is not None
    return accumulator


def minplus_gather(
    weights: np.ndarray,
    indices: np.ndarray,
    dense: np.ndarray,
    memory_budget: Optional[int] = None,
) -> np.ndarray:
    """Row-sparse min-plus step: ``out[u, v] = min_j w[u,j] + D[idx[u,j], v]``.

    The inner product of one Bellman-Ford round over a row-sparse matrix
    (``hop_power_row_sparse``): each row ``u`` relaxes through its ``k``
    stored neighbours ``indices[u, :]``.  Row-blocked so the gathered
    temporary stays within the memory budget.  ``indices`` must be valid
    row indices into ``dense`` (callers map padding to a self-loop with
    ``inf`` weight).
    """
    weights = np.asarray(weights, dtype=np.float64)
    indices = np.asarray(indices)
    n, k = weights.shape
    m = dense.shape[1]
    if k == 0:
        return np.full((n, m), INF)
    if memory_budget is None:
        memory_budget = memory_budget_from_env()
    blk = max(1, min(n, memory_budget // (8 * k * max(1, m))))
    out = np.empty((n, m))
    for start in range(0, n, blk):
        stop = min(start + blk, n)
        # gathered[u, j, v] = dense[indices[u, j], v]
        gathered = dense[indices[start:stop], :]
        out[start:stop] = (weights[start:stop, :, None] + gathered).min(axis=1)
    return out


def _tiled_product(
    a: np.ndarray,
    b: np.ndarray,
    memory_budget: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Two-axis tiled product over any dtype with exact add/min semantics.

    Column tiles of ``b`` are copied contiguous once per tile, and one
    scratch buffer of ``bi * k * bj`` elements is reused for the broadcast
    sums — ``O(block^2 * k)`` memory instead of the broadcast formula's
    ``O(n * k * m)``.
    """
    n, k = a.shape
    m = b.shape[1]
    itemsize = a.dtype.itemsize
    bj = min(m, 256)
    bi = max(1, min(n, memory_budget // (itemsize * max(1, k) * bj)))
    if out is None or out.dtype != a.dtype:
        out = np.empty((n, m), dtype=a.dtype)
    scratch = np.empty((bi, k, bj), dtype=a.dtype)
    for col_start in range(0, m, bj):
        col_stop = min(col_start + bj, m)
        col_tile = np.ascontiguousarray(b[:, col_start:col_stop])
        width = col_stop - col_start
        for row_start in range(0, n, bi):
            row_stop = min(row_start + bi, n)
            sums = np.add(
                a[row_start:row_stop, :, None],
                col_tile[None, :, :],
                out=scratch[: row_stop - row_start, :, :width],
            )
            out[row_start:row_stop, col_start:col_stop] = sums.min(axis=1)
    return out


__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "INF",
    "MemoryBudgetError",
    "memory_budget_from_env",
    "minplus",
    "minplus_gather",
    "minplus_power",
    "minplus_square",
    "resolve_kernel",
]
