"""Unit tests for the bucketed (Dial) weighted parallel BFS."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graph import from_edges, gnm_random_graph, with_random_weights
from repro.paths import dial_sssp
from repro.paths.dijkstra import dijkstra_scipy
from repro.pram import PramTracker

INF = np.iinfo(np.int64).max


@pytest.fixture
def int_graph():
    g = gnm_random_graph(80, 240, seed=21, connected=True)
    return with_random_weights(g, 1, 6, "integer", seed=22)


class TestDialSSSP:
    def test_matches_dijkstra(self, int_graph):
        dist, parent, owner, levels = dial_sssp(int_graph, np.array([0]))
        expect = dijkstra_scipy(int_graph, 0)
        assert np.array_equal(dist.astype(float), expect)

    def test_multi_source_min(self, int_graph):
        srcs = np.array([0, 40])
        dist, _, owner, _ = dial_sssp(int_graph, srcs)
        d0 = dijkstra_scipy(int_graph, 0)
        d1 = dijkstra_scipy(int_graph, 40)
        assert np.array_equal(dist.astype(float), np.minimum(d0, d1))
        assert set(np.unique(owner)) <= {0, 40}

    def test_offsets_shift_race(self):
        g = from_edges(3, [(0, 1), (1, 2)], weights=[1.0, 1.0])
        dist, _, owner, _ = dial_sssp(
            g, np.array([0, 2]), offsets=np.array([0, 10])
        )
        # source 2 delayed by 10: source 0 owns everything
        assert (owner == 0).all()
        assert list(dist) == [0, 1, 2]

    def test_rejects_non_integer_weights(self, small_weighted):
        with pytest.raises(ParameterError):
            dial_sssp(small_weighted, np.array([0]))

    def test_rejects_zero_weights(self, int_graph):
        w = np.zeros(int_graph.num_arcs, dtype=np.int64)
        with pytest.raises(ParameterError):
            dial_sssp(int_graph, np.array([0]), weights_int=w)

    def test_levels_bounded_by_max_distance(self, int_graph):
        t = PramTracker(n=int_graph.n, depth_per_round=1)
        dist, _, _, levels = dial_sssp(int_graph, np.array([0]), tracker=t)
        finite_max = int(dist[dist < INF].max())
        assert levels <= finite_max + 1
        assert t.rounds == levels

    def test_parent_is_sssp_tree(self, int_graph):
        from repro.paths.trees import verify_sssp_tree

        dist, parent, _, _ = dial_sssp(int_graph, np.array([0]))
        verify_sssp_tree(int_graph, dist.astype(float), parent)

    def test_disconnected_inf(self, disconnected):
        dist, _, owner, _ = dial_sssp(disconnected, np.array([0]))
        assert dist[3] == INF and owner[3] == -1


class TestWeightedRace:
    def test_all_vertices_owned(self, int_graph):
        n = int_graph.n
        starts = np.random.default_rng(5).integers(0, 10, n)
        sdist, parent, owner, _ = dial_sssp(int_graph, np.arange(n), offsets=starts)
        assert (owner >= 0).all()
        # owners own themselves
        assert (owner[owner] == owner).all()

    def test_race_is_argmin_of_offset_distance(self, int_graph):
        n = int_graph.n
        rng = np.random.default_rng(6)
        starts = rng.integers(0, 8, n)
        sdist, _, owner, _ = dial_sssp(int_graph, np.arange(n), offsets=starts)
        # brute force via scipy APSP
        from scipy.sparse.csgraph import dijkstra as sp

        D = sp(int_graph.to_scipy(), directed=False)
        key = D + starts[:, None]
        best = key.min(axis=0)
        mine = key[owner, np.arange(n)]
        assert np.allclose(mine, best)
        assert np.array_equal(sdist.astype(float), best)
