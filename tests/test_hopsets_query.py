"""Unit tests for hopset distance queries."""

import numpy as np
import pytest

from oracles import arcs_from_graph, combine_arcs
from repro.graph import grid_graph, path_graph
from repro.hopsets import (
    HopsetParams,
    build_hopset,
    build_limited_hopset,
    exact_distance,
    hopset_distance,
    suggested_hop_bound,
)
from repro.hopsets.result import HopsetResult
from repro.pram import PramTracker

PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5)


@pytest.fixture(scope="module")
def built():
    g = grid_graph(18, 18)
    return g, build_hopset(g, PARAMS, seed=11)


class TestQueries:
    def test_distance_with_explicit_h(self, built):
        g, hs = built
        d, hops = hopset_distance(hs, 0, g.n - 1, h=g.n)
        assert hops <= g.n
        assert d >= exact_distance(g, 0, g.n - 1) - 1e-9

    def test_adaptive_budget_converges(self, built):
        g, hs = built
        d_auto, _ = hopset_distance(hs, 0, g.n - 1)
        d_full, _ = hopset_distance(hs, 0, g.n - 1, h=g.n)
        assert d_auto == pytest.approx(d_full)

    def test_same_vertex_zero(self, built):
        _, hs = built
        d, hops = hopset_distance(hs, 3, 3)
        assert d == 0.0 and hops == 0

    def test_suggested_hop_bound_monotone(self, built):
        _, hs = built
        assert suggested_hop_bound(hs, 10.0) <= suggested_hop_bound(hs, 100.0)

    def test_suggested_hop_bound_capped_at_n(self, built):
        g, hs = built
        assert suggested_hop_bound(hs, 1e12) <= g.n

    def test_tracker_depth_counts_rounds(self, built):
        g, hs = built
        t = PramTracker(n=g.n, depth_per_round=1)
        hopset_distance(hs, 0, g.n - 1, h=32, tracker=t)
        assert 0 < t.rounds <= 32

    def test_query_on_tiny_graph_exact(self):
        # tiny path: whatever shortcuts exist, the distance is exact and
        # the hop count never exceeds the plain path's
        g = path_graph(4)
        hs = build_hopset(g, PARAMS, seed=1)
        d, hops = hopset_distance(hs, 0, 3)
        assert d == 3.0 and 1 <= hops <= 3

    def test_query_on_hopset_free_graph(self):
        # below n_final the recursion exits immediately: empty hopset,
        # query degenerates to plain Bellman-Ford
        g = path_graph(2)
        hs = build_hopset(g, PARAMS, seed=1)
        assert hs.size == 0
        d, hops = hopset_distance(hs, 0, 1)
        assert d == 1.0 and hops == 1


class TestResultCaches:
    def test_union_csr_cached_identity(self, built):
        g, hs = built
        # both hopset types memoize the compiled union
        for owner in (hs, build_limited_hopset(g, alpha=0.5, seed=3)):
            first = owner.union_csr()
            second = owner.union_csr()
            assert all(a is b for a, b in zip(first, second))

    def test_union_csr_matches_arcs(self, built):
        g, hs = built
        arcs = combine_arcs(arcs_from_graph(g), hs.eu, hs.ev, hs.ew)
        indptr, indices, weights = hs.union_csr()
        assert indptr[-1] == arcs.size == indices.shape[0] == weights.shape[0]
        # arc multiset is preserved through the CSR compilation
        got = sorted(zip(np.repeat(np.arange(arcs.n), np.diff(indptr)),
                         indices, weights))
        want = sorted(zip(arcs.src, arcs.dst, arcs.w))
        assert got == want


class TestAdaptiveWarmStart:
    def test_rounds_linear_not_quadratic(self):
        # without a budget the query is one search that stops at the
        # first round improving nothing: each hop is charged once, plus
        # one detection round (a hop-doubling schedule restarting at
        # each budget would charge 8+16+32+64 = 120 rounds on a path-60)
        n = 60
        g = path_graph(n)
        hs = HopsetResult(
            graph=g,
            eu=np.empty(0, np.int64),
            ev=np.empty(0, np.int64),
            ew=np.empty(0, np.float64),
            kind=np.empty(0, np.int64),
        )
        t = PramTracker(n=n, depth_per_round=1)
        d, hops = hopset_distance(hs, 0, n - 1, tracker=t)
        assert d == float(n - 1) and hops == n - 1
        assert t.rounds <= n + 8

    def test_warm_start_same_answer_as_explicit_h(self):
        n = 60
        g = path_graph(n)
        hs = HopsetResult(
            graph=g,
            eu=np.empty(0, np.int64),
            ev=np.empty(0, np.int64),
            ew=np.empty(0, np.float64),
            kind=np.empty(0, np.int64),
        )
        d_auto, h_auto = hopset_distance(hs, 0, n - 1)
        d_full, h_full = hopset_distance(hs, 0, n - 1, h=n)
        assert d_auto == d_full and h_auto == h_full
