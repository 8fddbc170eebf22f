"""Unit tests for Brent speedup projections and hopset path expansion."""

import numpy as np
import pytest

from repro.errors import VerificationError
from repro.graph import grid_graph, gnm_random_graph, with_random_weights
from repro.hopsets import (
    HopsetParams,
    build_hopset,
    exact_distance,
    expand_to_graph_path,
    hopset_distance,
    verify_graph_path,
)
from repro.paths.bellman_ford import (
    arcs_from_graph,
    extract_arc_path,
    hop_limited_with_parents,
)
from repro.pram.speedup import processors_for_speedup

PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5)


class TestBrent:
    def test_processors_for_speedup(self):
        p = processors_for_speedup(10**6, 100, 1000)
        assert p > 0
        # Brent's bound on p-processor time is work/p + depth
        assert 10**6 / (10**6 / p + 100) >= 1000 - 1e-6

    def test_processors_for_impossible_speedup(self):
        assert processors_for_speedup(10**6, 100, 10**6) == 0
        assert processors_for_speedup(100, 1, 1.0) == 1


class TestParentTracking:
    def test_parent_path_consistent_when_converged(self, small_weighted):
        arcs = arcs_from_graph(small_weighted)
        dist, hops, parent_arc = hop_limited_with_parents(
            arcs, np.array([0]), h=small_weighted.n
        )
        for t in range(0, small_weighted.n, 11):
            if t == 0 or not np.isfinite(dist[t]):
                continue
            path = extract_arc_path(arcs, parent_arc, t)
            w = sum(float(arcs.w[a]) for a in path)
            assert w == pytest.approx(dist[t])
            assert int(arcs.src[path[0]]) == 0
            assert int(arcs.dst[path[-1]]) == t

    def test_source_has_empty_path(self, small_weighted):
        arcs = arcs_from_graph(small_weighted)
        _, _, parent_arc = hop_limited_with_parents(arcs, np.array([0]), h=10)
        assert extract_arc_path(arcs, parent_arc, 0) == []


class TestPathExpansion:
    @pytest.fixture(scope="class")
    def built(self):
        g = grid_graph(20, 20)
        return g, build_hopset(g, PARAMS, seed=13)

    def test_expanded_path_is_real_and_tight(self, built):
        g, hs = built
        rng = np.random.default_rng(1)
        for _ in range(6):
            s, t = rng.integers(0, g.n, 2)
            if s == t:
                continue
            path, w = expand_to_graph_path(hs, int(s), int(t))
            assert path[0] == s and path[-1] == t
            w_check = verify_graph_path(g, path)
            assert w == pytest.approx(w_check)
            # expansion can only improve on the estimate
            est, _ = hopset_distance(hs, int(s), int(t))
            assert w <= est + 1e-9
            assert w >= exact_distance(g, int(s), int(t)) - 1e-9

    def test_same_vertex(self, built):
        _, hs = built
        path, w = expand_to_graph_path(hs, 4, 4)
        assert path == [4] and w == 0.0

    def test_unreachable_raises(self, disconnected):
        hs = build_hopset(disconnected, PARAMS, seed=1)
        with pytest.raises(VerificationError):
            expand_to_graph_path(hs, 0, 3)

    def test_weighted_graph_expansion(self):
        g = with_random_weights(
            gnm_random_graph(150, 600, seed=5, connected=True), 1, 30, "uniform", seed=6
        )
        hs = build_hopset(g, PARAMS, seed=7, method="exact")
        path, w = expand_to_graph_path(hs, 0, g.n - 1)
        assert verify_graph_path(g, path) == pytest.approx(w)

    def test_verify_rejects_non_path(self, built):
        g, _ = built
        with pytest.raises(VerificationError):
            verify_graph_path(g, [0, g.n - 1])  # opposite corners not adjacent
        with pytest.raises(VerificationError):
            verify_graph_path(g, [])
