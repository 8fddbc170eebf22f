"""Unit tests for the engine's Dial mode: Section 5's bucketed weighted
parallel BFS, an ``int64`` weight override at ``delta=1``."""

import numpy as np
import pytest

from repro.graph import from_edges, gnm_random_graph, with_random_weights
from repro.paths import shortest_path_forest, shortest_paths
from repro.paths.dijkstra import dijkstra_scipy
from repro.pram import PramTracker

INF = np.iinfo(np.int64).max


@pytest.fixture
def int_graph():
    g = gnm_random_graph(80, 240, seed=21, connected=True)
    return with_random_weights(g, 1, 6, "integer", seed=22)


def _dial(g, sources, offsets=None, tracker=None):
    return shortest_paths(
        g, sources, offsets, weights=g.weights.astype(np.int64), delta=1,
        tracker=tracker,
    )


def _dial_forest(g, res, sources, offsets=None):
    """``(parent, owner)`` of the Dial search ``res``."""
    w = g.weights.astype(np.int64)
    return shortest_path_forest(g, res.dist, sources, offsets, weights=w)


class TestDialSSSP:
    def test_matches_dijkstra(self, int_graph):
        res = _dial(int_graph, np.array([0]))
        expect = dijkstra_scipy(int_graph, 0)
        assert res.dist.dtype == np.int64
        assert np.array_equal(res.dist.astype(float), expect)

    def test_multi_source_min(self, int_graph):
        srcs = np.array([0, 40])
        res = _dial(int_graph, srcs)
        d0 = dijkstra_scipy(int_graph, 0)
        d1 = dijkstra_scipy(int_graph, 40)
        assert np.array_equal(res.dist.astype(float), np.minimum(d0, d1))
        assert set(np.unique(_dial_forest(int_graph, res, srcs)[1])) <= {0, 40}

    def test_offsets_shift_race(self):
        g = from_edges(3, [(0, 1), (1, 2)], weights=[1.0, 1.0])
        srcs, offs = np.array([0, 2]), np.array([0, 10])
        res = _dial(g, srcs, offsets=offs)
        # source 2 delayed by 10: source 0 owns everything
        assert (_dial_forest(g, res, srcs, offs)[1] == 0).all()
        assert list(res.dist) == [0, 1, 2]

    def test_levels_bounded_by_max_distance(self, int_graph):
        t = PramTracker(n=int_graph.n, depth_per_round=1)
        res = _dial(int_graph, np.array([0]), tracker=t)
        finite_max = int(res.dist[res.dist < INF].max())
        assert res.buckets <= finite_max + 1
        assert t.rounds == res.buckets

    def test_parent_is_sssp_tree(self, int_graph):
        from repro.paths.trees import verify_sssp_tree

        res = _dial(int_graph, np.array([0]))
        parent, _ = _dial_forest(int_graph, res, [0])
        verify_sssp_tree(int_graph, res.dist.astype(float), parent)

    def test_disconnected_inf(self, disconnected):
        res = _dial(disconnected, np.array([0]))
        assert res.dist[3] == INF and _dial_forest(disconnected, res, [0])[1][3] == -1


class TestWeightedRace:
    def test_all_vertices_owned(self, int_graph):
        n = int_graph.n
        starts = np.random.default_rng(5).integers(0, 10, n)
        res = _dial(int_graph, np.arange(n), offsets=starts)
        _, owner = _dial_forest(int_graph, res, np.arange(n), starts)
        assert (owner >= 0).all()
        # owners own themselves
        assert (owner[owner] == owner).all()

    def test_race_is_argmin_of_offset_distance(self, int_graph):
        n = int_graph.n
        rng = np.random.default_rng(6)
        starts = rng.integers(0, 8, n)
        res = _dial(int_graph, np.arange(n), offsets=starts)
        _, owner = _dial_forest(int_graph, res, np.arange(n), starts)
        # brute force via scipy APSP
        from scipy.sparse.csgraph import dijkstra as sp

        D = sp(int_graph.to_scipy(), directed=False)
        key = D + starts[:, None]
        best = key.min(axis=0)
        mine = key[owner, np.arange(n)]
        assert np.allclose(mine, best)
        assert np.array_equal(res.dist.astype(float), best)
