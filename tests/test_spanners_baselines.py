"""Unit tests for Baswana-Sen and greedy spanner baselines."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graph import complete_graph, gnm_random_graph, path_graph, with_random_weights
from repro.graph.validation import is_subgraph
from repro.spanners import (
    baswana_sen_spanner,
    greedy_spanner,
    max_edge_stretch,
    verify_spanner,
)


class TestBaswanaSen:
    # k = 5 runs phases in which no alive arc reaches a sampled cluster
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_stretch_2k_minus_1(self, small_gnm, k):
        for seed in range(3):
            sp = baswana_sen_spanner(small_gnm, k, seed=seed)
            s = max_edge_stretch(small_gnm, sp)
            assert s <= 2 * k - 1 + 1e-9, f"k={k} seed={seed} stretch={s}"

    def test_weighted_stretch(self, small_weighted):
        for seed in range(3):
            sp = baswana_sen_spanner(small_weighted, 3, seed=seed)
            assert max_edge_stretch(small_weighted, sp) <= 5 + 1e-9

    def test_k1_keeps_all_edges(self, small_gnm):
        sp = baswana_sen_spanner(small_gnm, 1, seed=0)
        # (2*1-1)=1-spanner must preserve all distances exactly
        assert max_edge_stretch(small_gnm, sp) == pytest.approx(1.0)

    def test_is_subgraph(self, small_weighted):
        sp = baswana_sen_spanner(small_weighted, 3, seed=1)
        assert is_subgraph(sp.subgraph(), small_weighted)

    def test_size_reasonable(self):
        g = gnm_random_graph(300, 4000, seed=2, connected=True)
        k = 3
        sizes = [baswana_sen_spanner(g, k, seed=s).size for s in range(3)]
        bound = k * g.n ** (1 + 1 / k)
        assert np.mean(sizes) <= 3 * bound

    def test_empty_graph(self, empty_graph):
        sp = baswana_sen_spanner(empty_graph, 2, seed=0)
        assert sp.size == 0

    def test_invalid_k(self, small_gnm):
        with pytest.raises(ParameterError):
            baswana_sen_spanner(small_gnm, 0)

    def test_deterministic(self, small_gnm):
        a = baswana_sen_spanner(small_gnm, 3, seed=9)
        b = baswana_sen_spanner(small_gnm, 3, seed=9)
        assert np.array_equal(a.edge_ids, b.edge_ids)


class TestGreedy:
    def test_stretch_exact(self):
        g = gnm_random_graph(40, 160, seed=3, connected=True)
        sp = greedy_spanner(g, 3.0)
        assert max_edge_stretch(g, sp) <= 3.0 + 1e-9

    def test_weighted(self):
        g = gnm_random_graph(30, 100, seed=4, connected=True)
        gw = with_random_weights(g, 1, 10, "uniform", seed=5)
        sp = greedy_spanner(gw, 4.0)
        verify_spanner(gw, sp, stretch=4.0)

    def test_t1_preserves_all_distances(self):
        g = complete_graph(8)
        sp = greedy_spanner(g, 1.0)
        assert sp.size == g.m  # unit-weight complete graph: every edge needed

    def test_sparser_than_input_on_dense(self):
        g = complete_graph(20)
        sp = greedy_spanner(g, 3.0)
        assert sp.size < g.m

    def test_path_untouched(self):
        g = path_graph(15)
        sp = greedy_spanner(g, 2.0)
        assert sp.size == g.m

    def test_invalid_t(self, small_gnm):
        with pytest.raises(ParameterError):
            greedy_spanner(small_gnm, 0.5)

    def test_greedy_no_larger_than_est_spanner(self):
        # the greedy spanner is the size anchor: it should not be bigger
        # than our randomized construction at comparable stretch
        from repro.spanners import unweighted_spanner

        g = gnm_random_graph(60, 400, seed=6, connected=True)
        greedy = greedy_spanner(g, 5.0)
        est = unweighted_spanner(g, 3, seed=7)  # stretch ~5 in practice
        assert greedy.size <= est.size * 1.5 + 10
