"""Unit tests for Algorithm 4 (unweighted/integer hopset construction)."""

import numpy as np
import pytest

from repro.graph import grid_graph, path_graph
from repro.hopsets import HopsetParams, build_hopset
from repro.hopsets.query import exact_distance, hopset_distance
from repro.paths import hop_limited_distances
from repro.pram import PramTracker

PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5)


@pytest.fixture(scope="module")
def grid_hopset():
    g = grid_graph(24, 24)
    hs = build_hopset(g, PARAMS, seed=3)
    return g, hs


class TestConstruction:
    def test_edges_reference_valid_vertices(self, grid_hopset):
        g, hs = grid_hopset
        if hs.size:
            assert hs.eu.min() >= 0 and hs.eu.max() < g.n
            assert hs.ev.min() >= 0 and hs.ev.max() < g.n
            assert (hs.ew > 0).all()

    def test_weights_never_below_true_distance(self, grid_hopset):
        _, hs = grid_hopset
        hs.verify_edge_weights()  # Definition 2.4 item 2

    def test_star_count_at_most_n(self, grid_hopset):
        g, hs = grid_hopset
        assert hs.star_count <= g.n  # Lemma 4.3

    def test_clique_bound_lemma43(self, grid_hopset):
        g, hs = grid_hopset
        rho = PARAMS.rho(g.n)
        nf = PARAMS.n_final(g.n)
        bound = (g.n / nf) * rho * rho
        assert hs.clique_count <= bound

    def test_level_stats_recorded(self, grid_hopset):
        _, hs = grid_hopset
        assert len(hs.levels) >= 2
        betas = [ls.beta for ls in hs.levels]
        assert betas == sorted(betas)  # geometric schedule increases

    def test_star_edges_are_kind_zero(self, grid_hopset):
        _, hs = grid_hopset
        assert set(np.unique(hs.kind)) <= {0, 1}
        assert (hs.kind == 0).sum() == hs.star_count

    def test_deterministic(self):
        g = grid_graph(10, 10)
        a = build_hopset(g, PARAMS, seed=7)
        b = build_hopset(g, PARAMS, seed=7)
        assert np.array_equal(a.eu, b.eu)
        assert np.allclose(a.ew, b.ew)

    def test_small_graph_no_edges(self):
        g = path_graph(2)
        hs = build_hopset(g, PARAMS, seed=1)
        assert hs.size == 0  # n <= n_final: recursion exits immediately

    def test_meta_carries_params(self, grid_hopset):
        _, hs = grid_hopset
        assert hs.meta["delta"] == PARAMS.delta
        assert hs.meta["rho"] == pytest.approx(PARAMS.rho(24 * 24))

    def test_tracker_charges(self):
        g = grid_graph(12, 12)
        t = PramTracker(n=g.n)
        build_hopset(g, PARAMS, seed=2, tracker=t)
        assert t.work > 0 and t.depth > 0

    def test_integer_weighted_graph(self, small_int_weighted):
        hs = build_hopset(small_int_weighted, PARAMS, seed=5)
        hs.verify_edge_weights()

    def test_exact_method_weighted(self, small_weighted):
        hs = build_hopset(small_weighted, PARAMS, seed=5, method="exact")
        hs.verify_edge_weights()


class TestHopReduction:
    def test_long_path_needs_few_hops(self, grid_hopset):
        g, hs = grid_hopset
        s, t = 0, g.n - 1
        d_true = exact_distance(g, s, t)
        est, hops = hopset_distance(hs, s, t)
        assert est >= d_true - 1e-9  # never undershoots
        assert est <= PARAMS.predicted_distortion(g.n) * d_true + 1e-9
        assert hops < d_true / 2  # real hop reduction on a 46-hop path

    def test_distortion_on_random_pairs(self, grid_hopset):
        g, hs = grid_hopset
        rng = np.random.default_rng(0)
        bound = PARAMS.predicted_distortion(g.n)
        for _ in range(10):
            s, t = rng.integers(0, g.n, 2)
            if s == t:
                continue
            d_true = exact_distance(g, int(s), int(t))
            est, _ = hopset_distance(hs, int(s), int(t))
            assert d_true <= est <= bound * d_true + 1e-9

    def test_explicit_hop_budget(self, grid_hopset):
        g, hs = grid_hopset
        est, hops = hopset_distance(hs, 0, g.n - 1, h=int(g.n ** 0.5) + 20)
        assert np.isfinite(est)

    def test_augmented_never_worse_than_plain(self, grid_hopset):
        g, hs = grid_hopset
        h = 12
        plain, _, _ = hop_limited_distances((g.indptr, g.indices, g.weights), np.array([0]), h)
        aug, _, _ = hop_limited_distances(hs.union_csr(), np.array([0]), h)
        assert (aug <= plain + 1e-9).all()
