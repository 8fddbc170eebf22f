"""Unit tests for exact shortest paths (with offsets) and tree utilities."""

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra as sp_dijkstra

from repro.errors import VerificationError
from repro.graph import path_graph
from repro.hopsets.query import exact_distance
from repro.paths import dijkstra_scipy, shortest_paths
from repro.paths.trees import extract_path, tree_depths, verify_sssp_tree


class TestDijkstra:
    def test_matches_scipy(self, small_weighted):
        res = shortest_paths(small_weighted, 0)
        assert np.allclose(res.dist, dijkstra_scipy(small_weighted, 0))
        assert (res.owner == 0).all()

    def test_scalar_source_accepted(self, small_weighted):
        dist = shortest_paths(small_weighted, 0).dist
        dist2 = shortest_paths(small_weighted, np.array([0])).dist
        assert np.allclose(dist, dist2)

    def test_multi_source_offsets(self):
        g = path_graph(5)
        res = shortest_paths(g, np.array([0, 4]), offsets=np.array([0.0, 0.5]))
        # vertex 2: from 0 costs 2.0, from 4 costs 2.5
        assert res.owner[2] == 0
        assert res.dist[2] == 2.0
        assert res.owner[3] == 4
        assert res.dist[3] == pytest.approx(1.5)

    def test_tree_is_valid(self, small_weighted):
        res = shortest_paths(small_weighted, 0)
        verify_sssp_tree(small_weighted, res.dist, res.parent)

    def test_disconnected_inf(self, disconnected):
        res = shortest_paths(disconnected, 0)
        assert np.isinf(res.dist[3])
        assert res.owner[3] == -1

    def test_st_distance(self):
        g = path_graph(6)
        assert exact_distance(g, 0, 5) == 5.0

    def test_apsp_symmetric(self, small_weighted):
        D = sp_dijkstra(small_weighted.to_scipy(), directed=False)
        assert np.allclose(D, D.T)
        assert (np.diag(D) == 0).all()


class TestTrees:
    def test_extract_path(self):
        parent = np.array([-1, 0, 1, 2])
        assert extract_path(parent, 3) == [0, 1, 2, 3]
        assert extract_path(parent, 0) == [0]

    def test_extract_path_cycle_detected(self):
        parent = np.array([1, 0])
        with pytest.raises(VerificationError):
            extract_path(parent, 0)

    def test_tree_depths_unweighted(self):
        parent = np.array([-1, 0, 1, 1])
        d = tree_depths(parent)
        assert list(d) == [0, 1, 2, 2]

    def test_tree_depths_weighted(self):
        parent = np.array([-1, 0, 1])
        w = np.array([0.0, 2.5, 4.0])  # weight of edge to parent
        d = tree_depths(parent, w)
        assert list(d) == [0.0, 2.5, 6.5]

    def test_verify_rejects_non_neighbor_parent(self):
        g = path_graph(4)
        dist = np.array([0.0, 1.0, 2.0, 3.0])
        parent = np.array([-1, 0, 0, 2])  # 2's parent 0 is not adjacent
        with pytest.raises(VerificationError):
            verify_sssp_tree(g, dist, parent)

    def test_verify_rejects_triangle_violation(self):
        g = path_graph(3)
        dist = np.array([0.0, 5.0, 6.0])  # edge (0,1) has w=1 but |d| = 5
        parent = np.array([-1, -1, -1])
        with pytest.raises(VerificationError):
            verify_sssp_tree(g, dist, parent)
