"""Moderate-scale smoke tests: the pipelines at n = 256.

Kept fast (vectorized paths dominate); they guard against accidental
quadratic-in-n Python loops sneaking into the hot paths.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import apsp_small_diameter, apsp_theorem11
from repro.graphs import check_estimate, erdos_renyi, exact_apsp

from tests.helpers import make_rng


@pytest.fixture(scope="module")
def big_graph():
    return erdos_renyi(256, 0.03, make_rng(77))


@pytest.fixture(scope="module")
def big_exact(big_graph):
    return exact_apsp(big_graph)


class TestScale256:
    def test_theorem11(self, big_graph, big_exact):
        start = time.monotonic()
        result = apsp_theorem11(big_graph, make_rng(1))
        elapsed = time.monotonic() - start
        report = check_estimate(big_exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9
        assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s at n=256"

    def test_small_diameter(self, big_graph, big_exact):
        start = time.monotonic()
        result = apsp_small_diameter(big_graph, make_rng(2))
        elapsed = time.monotonic() - start
        report = check_estimate(big_exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9
        assert elapsed < 30.0

    def test_knearest_at_scale(self, big_graph):
        from repro.core import knearest_exact, knearest_iterated
        from repro.semiring import k_smallest_in_rows, minplus_power

        matrix = big_graph.matrix()
        result = knearest_iterated(matrix, 16, 2, 3)
        truth = minplus_power(matrix, 8)
        t_idx, t_val = k_smallest_in_rows(truth, 16)
        assert np.array_equal(result.indices, t_idx)
        # Every 16-nearest set here lies within 8 hops, so the exact balls
        # (h^i = 16 >= k) match the same 8-hop truth.
        exact = knearest_exact(big_graph, 16, 2, 4)
        assert np.array_equal(exact.indices, t_idx)
        assert np.array_equal(exact.values, t_val)

    def test_hopset_at_scale(self, big_graph, big_exact):
        from repro.core import build_knearest_hopset

        delta = big_exact * 2.0
        np.fill_diagonal(delta, 0.0)
        start = time.monotonic()
        result = build_knearest_hopset(big_graph, delta, 2.0)
        elapsed = time.monotonic() - start
        assert result.k == 16
        assert elapsed < 20.0
