#!/usr/bin/env python
"""k-nearest distances on *directed* graphs (Sections 4 and 5).

The paper's headline theorems are for undirected graphs, but two of its
building blocks — the k-nearest beta-hopset (Lemma 3.2) and the fast
k-nearest computation (Lemma 3.3) — explicitly hold for directed graphs.
This example exercises exactly that: a one-way ring road with chords
(think: city streets), where distances are asymmetric.

Pipeline: coarse estimate -> directed hopset -> exact k-nearest grown
on G ∪ H -> verification against a Dijkstra oracle.

Run:  python examples/directed_knearest.py [n]
Exits 1 when some node's k-nearest distances are not exact.
"""

from __future__ import annotations

import sys

import numpy as np

from repro import build_knearest_hopset, exact_apsp, knearest_exact_via_hopset
from repro.cclique import RoundLedger
from repro.graphs import directed_ring_with_chords


def main(n: int = 64) -> int:
    rng = np.random.default_rng(42)
    graph = directed_ring_with_chords(n, n // 2, rng)
    exact = exact_apsp(graph)
    asym = float(np.mean(exact != exact.T))
    print(f"one-way network: {graph}")
    print(f"asymmetric pairs: {asym:.0%} (d(u,v) != d(v,u))")
    print()

    # A synthetic coarse 3-approximation stands in for the bootstrap
    # (Corollary 7.2's spanners are undirected; on directed inputs the
    # caller provides the initial estimate).
    a = 3.0
    noise = rng.uniform(1.0, a, size=exact.shape)
    delta = exact * noise
    np.fill_diagonal(delta, 0.0)

    ledger = RoundLedger(n)
    hopset = build_knearest_hopset(graph, delta, a, ledger=ledger)
    augmented = hopset.augmented(graph)
    print(f"hopset: {hopset.hopset.num_edges} directed edges, "
          f"beta bound {hopset.beta_bound} (O(a log d))")

    k = max(2, int(round(n ** 0.5)))
    knn = knearest_exact_via_hopset(augmented, k, 2, hopset.beta_bound, ledger=ledger)
    print(f"k-nearest: k = {k}, rounds so far {ledger.total_rounds}")

    # Verify exactness against the oracle.
    errors = 0
    for u in range(n):
        order = np.argsort(exact[u], kind="stable")[:k]
        if not np.allclose(np.sort(knn.values[u]), np.sort(exact[u, order])):
            errors += 1
    print(f"verification: {n - errors}/{n} nodes with exact k-nearest sets")

    u = 0
    members = [int(v) for v in knn.indices[u] if v >= 0][:6]
    shown = ", ".join(
        f"{v} (d={knn.values[u][list(knn.indices[u]).index(v)]:.0f})"
        for v in members
    )
    print(f"node {u}'s nearest: {shown}")
    return 1 if errors else 0


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    sys.exit(main(size))
