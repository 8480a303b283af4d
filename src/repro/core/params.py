"""Parameter schedules from the paper, with documented small-n clamps.

The paper's parameter choices (``h = a^{1/4} / 2``, ``k = n^{1/h}``,
``b = sqrt(a)``, ``k = log^4 n`` ...) are asymptotic; at laptop-scale ``n``
several of them degenerate (``log^4 n > n`` for every n below ~2^64, or
``h < 2``).  This module centralizes every schedule with an explicit,
documented clamp so the algorithm modules contain no ad-hoc numerology and
the experiments can report both the paper's formula and the value actually
used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Constant allowed in "k in O(n^{1/h})" feasibility checks (Lemma 5.1).
KNEAREST_LOAD_CONSTANT = 4.0


def hopset_beta_bound(a: float, diameter: float) -> int:
    """Explicit hop bound of the Lemma 3.2 hopset: ``beta in O(a log d)``.

    From the proof of Lemma 4.2: the selected sequence has
    ``i* <= ceil(a ln d) + 1`` segments, each bridged by a 2-hop path, plus
    one final edge, giving ``beta <= 2 (ceil(a ln d) + 1) + 1``.

    ``diameter`` may be any upper bound on the weighted diameter (estimates
    from an a-approximation are fine: a larger d only loosens the bound).
    """
    if a < 1:
        raise ValueError("approximation factor a must be >= 1")
    d = max(2.0, float(diameter))
    return 2 * (math.ceil(a * math.log(d)) + 1) + 1


def reduction_h(a: float) -> int:
    """Lemma 3.1's hop parameter ``h = a^{1/4} / 2``, clamped to >= 2.

    ``h = 1`` would make ``k = n`` (no reduction) and ``h = 0`` is
    meaningless; the clamp only triggers for ``a < 256``, i.e. exactly the
    regime where the paper would already have stopped iterating.
    """
    return max(2, int(round(0.5 * float(a) ** 0.25)))


def reduction_k(n: int, h: int, k_cap: int | None = None) -> int:
    """Lemma 3.1's neighbourhood size ``k = n^{1/h}``.

    Clamped to ``[1, k_cap]`` where ``k_cap`` defaults to ``sqrt(n)``
    (the hopset of Lemma 3.2 only covers the sqrt(n)-nearest nodes, so a
    larger k would void the exactness guarantee of Lemma 3.3).
    """
    if n < 1 or h < 1:
        raise ValueError("need n >= 1 and h >= 1")
    cap = int(math.isqrt(n)) if k_cap is None else int(k_cap)
    k = int(math.floor(n ** (1.0 / h)))
    return max(1, min(k, max(1, cap)))


def reduction_b(a: float) -> int:
    """Lemma 3.1's spanner parameter ``b = sqrt(a)``, clamped to >= 2."""
    return max(2, int(round(math.sqrt(float(a)))))


def knearest_iterations(beta: int, h: int) -> int:
    """Smallest ``i`` with ``h^i >= beta`` (Lemma 3.3 needs a k-nearest
    ``h^i``-hopset, and Lemma 3.2 provides a beta-hopset)."""
    if beta < 1 or h < 2:
        raise ValueError("need beta >= 1 and h >= 2")
    i = 0
    power = 1
    while power < beta:
        power *= h
        i += 1
    return max(1, i)


def knearest_feasible(n: int, k: int, h: int) -> bool:
    """Whether ``k in O(n^{1/h})`` holds with the repo's load constant."""
    if n < 1 or k < 1 or h < 1:
        return False
    return k <= KNEAREST_LOAD_CONSTANT * n ** (1.0 / h)


def theorem11_k0(n: int) -> int:
    """Theorem 1.1's first-stage neighbourhood size ``k = log^4 n``.

    Clamped to ``sqrt(n)``: for every practically simulable ``n`` we have
    ``log^4 n > sqrt(n)``, and the clamp keeps the skeleton reduction
    meaningful (``|V_S| ~ n log k / k < n``) while preserving the code path.
    The asymptotic statement is untouched — the clamp is inactive for
    ``n > ~2^89``.
    """
    if n < 2:
        return 1
    k = int(math.ceil(math.log2(n) ** 4))
    return max(2, min(k, int(math.isqrt(n))))


class HopScheduleInfeasible(ValueError):
    """No ``(h, i)`` schedule exists: even ``h = 2`` breaks the load bound."""


def choose_hop_schedule(n: int, k: int) -> tuple[int, int]:
    """Pick ``(h, i)`` with ``h^i >= k`` and ``k in O(n^{1/h})``.

    Used by Theorem 1.1's first stage: distances to the k-nearest nodes can
    be computed on ``G`` itself (no hopset) because a shortest path to a
    k-nearest node has at most ``k`` hops.  Prefers the smallest feasible
    ``i`` (round complexity is O(i)).  The search ends at
    ``i = (k - 1).bit_length()``, the first ``i`` where ``h = 2`` already
    satisfies ``2^i >= k``; a larger ``i`` cannot lower ``h`` further.
    Raises :class:`HopScheduleInfeasible` when even ``h = 2`` violates
    :func:`knearest_feasible`.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if k == 1:
        return 2, 1
    last = (k - 1).bit_length()
    for i in range(1, last + 1):
        # At ``i = last``, ``h = 2`` is exact; a float root could round up.
        h = 2 if i == last else max(2, int(math.ceil(k ** (1.0 / i))))
        if h**i >= k and knearest_feasible(n, k, h):
            return h, i
    raise HopScheduleInfeasible(
        f"no feasible (h, i) schedule for n={n}, k={k}: even h=2 needs "
        f"k <= {KNEAREST_LOAD_CONSTANT * math.sqrt(n):.2f} "
        f"(load constant {KNEAREST_LOAD_CONSTANT} * sqrt(n))"
    )


def skeleton_size_bound(n: int, k: int) -> float:
    """Lemma 6.1's skeleton size bound ``O(n log k / k)`` (constant 4)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return 4.0 * n * max(1.0, math.log(max(2, k))) / k


def exact_small_threshold(clique_n: int) -> int:
    """Node count below which a subgraph is solved by full broadcast.

    The paper's remark after Lemma 3.4: if the skeleton has fewer than
    ``sqrt(n)`` nodes, broadcast all its ``O(n)`` edges and solve exactly.
    """
    return max(8, int(math.isqrt(max(1, clique_n))))


@dataclass(frozen=True)
class ReductionPlan:
    """The parameter bundle for one Lemma 3.1 application."""

    a: float
    h: int
    k: int
    i: int
    b: int
    beta: int

    @property
    def promised_factor(self) -> float:
        """The lemma's guarantee: ``15 sqrt(a)``."""
        return 15.0 * math.sqrt(self.a)


def plan_reduction(n: int, a: float, diameter: float) -> ReductionPlan:
    """Assemble the Lemma 3.1 parameters for one reduction step."""
    beta = hopset_beta_bound(a, diameter)
    h = reduction_h(a)
    k = reduction_k(n, h)
    i = knearest_iterations(beta, h)
    b = reduction_b(a)
    return ReductionPlan(a=float(a), h=h, k=k, i=i, b=b, beta=beta)
