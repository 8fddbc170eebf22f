"""Unit tests for Appendix C limited hopsets and the Figure 2 baselines."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graph import grid_graph
from repro.hopsets import build_limited_hopset, cohen_style_hopset, ks97_hopset
from repro.hopsets.query import exact_distance
from repro.paths import hop_limited_distances
from repro.pram import PramTracker


class TestLimitedHopset:
    @pytest.fixture(scope="class")
    def built(self):
        g = grid_graph(14, 14)
        lh = build_limited_hopset(g, alpha=0.6, epsilon=0.5, seed=2)
        return g, lh

    def test_rounds_match_eta(self, built):
        _, lh = built
        assert lh.eta == pytest.approx(0.3)
        assert lh.rounds == int(np.ceil(1 / 0.3))

    def test_deduped_edges(self, built):
        _, lh = built
        if lh.size:
            key = np.minimum(lh.eu, lh.ev) * lh.graph.n + np.maximum(lh.eu, lh.ev)
            assert np.unique(key).shape[0] == lh.size

    def test_query_within_budget_accurate(self, built):
        g, lh = built
        rng = np.random.default_rng(5)
        for _ in range(6):
            s, t = rng.integers(0, g.n, 2)
            if s == t:
                continue
            d = exact_distance(g, int(s), int(t))
            est, hops = lh.query(int(s), int(t))
            assert d - 1e-9 <= est <= 2.5 * d + 1e-9
            assert hops <= lh.hop_budget

    def test_hop_budget_far_below_diameter(self, built):
        g, lh = built
        s, t = 0, g.n - 1
        d = exact_distance(g, s, t)  # 26 hops plain
        est, hops = lh.query(s, t)
        assert hops < d

    def test_alpha_validation(self, small_grid):
        with pytest.raises(ParameterError):
            build_limited_hopset(small_grid, alpha=0.0)
        with pytest.raises(ParameterError):
            build_limited_hopset(small_grid, alpha=1.0)


class TestKS97:
    @pytest.fixture(scope="class")
    def built(self):
        g = grid_graph(16, 16)
        hs = ks97_hopset(g, seed=3)
        return g, hs

    def test_size_is_hub_clique(self, built):
        g, hs = built
        k = int(hs.meta["hubs"])
        assert hs.size <= k * (k - 1) // 2

    def test_weights_valid(self, built):
        _, hs = built
        hs.verify_edge_weights()

    def test_hop_reduction(self, built):
        g, hs = built
        s, t = 0, g.n - 1
        d = exact_distance(g, s, t)  # 30 hops
        budget = int(4 * np.sqrt(g.n)) + 10
        dist, hops, _ = hop_limited_distances(hs.union_csr(), np.array([s]), budget)
        assert dist[t] == pytest.approx(d)  # exact hopset: zero distortion... via hubs
        # with hubs the path needs far fewer hops than d
        plain, _, _ = hop_limited_distances((g.indptr, g.indices, g.weights), np.array([s]), budget)
        assert dist[t] <= plain[t]

    def test_weighted_graph(self, small_weighted):
        hs = ks97_hopset(small_weighted, seed=4)
        hs.verify_edge_weights()

    def test_tracker_charged(self, small_gnm):
        t = PramTracker(n=small_gnm.n)
        ks97_hopset(small_gnm, seed=1, tracker=t)
        assert t.work > 0


class TestCohenStyle:
    def test_build_and_verify(self, small_gnm):
        hs = cohen_style_hopset(small_gnm, levels=2, seed=1)
        hs.verify_edge_weights()
        assert hs.size > 0

    def test_levels_validation(self, small_gnm):
        with pytest.raises(ParameterError):
            cohen_style_hopset(small_gnm, levels=0)

    def test_hop_reduction_on_grid(self):
        g = grid_graph(14, 14)
        hs = cohen_style_hopset(g, levels=2, seed=2)
        s, t = 0, g.n - 1
        d = exact_distance(g, s, t)
        budget = max(20, int(d))
        dist, hops, _ = hop_limited_distances(hs.union_csr(), np.array([s]), budget)
        assert dist[t] >= d - 1e-9
        assert np.isfinite(dist[t])
