"""Unit tests for exact shortest paths (with offsets) and tree utilities,
including the forest :func:`shortest_path_forest` derives from a
search's distances."""

import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra as sp_dijkstra

from oracles import KERNELS, dijkstra_reference, engine_kernel
from repro.clustering.est import est_cluster
from repro.errors import ParameterError, VerificationError
from repro.graph import from_edges, gnm_random_graph, path_graph, with_random_weights
from repro.hopsets.query import exact_distance
from repro.paths import dijkstra_scipy, shortest_paths
from repro.paths.trees import (
    extract_path,
    shortest_path_forest,
    tree_depths,
    verify_sssp_tree,
)


class TestDijkstra:
    def test_matches_scipy(self, small_weighted):
        res = shortest_paths(small_weighted, 0)
        assert np.allclose(res.dist, dijkstra_scipy(small_weighted, 0))
        assert (shortest_path_forest(small_weighted, res.dist, 0)[1] == 0).all()

    def test_scalar_source_accepted(self, small_weighted):
        dist = shortest_paths(small_weighted, 0).dist
        dist2 = shortest_paths(small_weighted, np.array([0])).dist
        assert np.allclose(dist, dist2)

    def test_multi_source_offsets(self):
        g = path_graph(5)
        srcs, offs = np.array([0, 4]), np.array([0.0, 0.5])
        res = shortest_paths(g, srcs, offsets=offs)
        _, owner = shortest_path_forest(g, res.dist, srcs, offs)
        # vertex 2: from 0 costs 2.0, from 4 costs 2.5
        assert owner[2] == 0
        assert res.dist[2] == 2.0
        assert owner[3] == 4
        assert res.dist[3] == pytest.approx(1.5)

    def test_tree_is_valid(self, small_weighted):
        res = shortest_paths(small_weighted, 0)
        parent, _ = shortest_path_forest(small_weighted, res.dist, 0)
        verify_sssp_tree(small_weighted, res.dist, parent)

    def test_disconnected_inf(self, disconnected):
        res = shortest_paths(disconnected, 0)
        assert np.isinf(res.dist[3])
        assert shortest_path_forest(disconnected, res.dist, 0)[1][3] == -1

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


@st.composite
def races(draw):
    """A connected G(n, m) with float or integer weights, and one to six
    distinct sources at real exponential offsets."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n = draw(st.integers(min_value=2, max_value=80))
    m = min(draw(st.integers(min_value=n, max_value=4 * n)), n * (n - 1) // 2)
    kind = draw(st.sampled_from(["loguniform", "integer"]))
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    g = with_random_weights(g, 1, 9, kind, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    k = draw(st.integers(min_value=1, max_value=min(n, 6)))
    sources = rng.choice(n, size=k, replace=False)
    return g, sources, rng.exponential(2.0, k), kind == "loguniform"


@contextmanager
def returns_within(seconds):
    """Fail with TimeoutError if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestShortestPathForest:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(races())
    def test_kernel_independent_and_matches_heapq(self, race):
        g, sources, offsets, real_weights = race
        forests = []
        for kernel in KERNELS:
            with engine_kernel(kernel):
                dist = shortest_paths(g, sources, offsets=offsets).dist
            forests.append(shortest_path_forest(g, dist, sources, offsets))
        for parent, owner in forests[1:]:
            assert np.array_equal(parent, forests[0][0])
            assert np.array_equal(owner, forests[0][1])
        if not real_weights:
            return  # integer paths tie: the heapq order picks other parents
        # real weights and offsets: ties have measure zero, so the heapq
        # Dijkstra's own labels are the same forest
        _, pref, oref = dijkstra_reference(g, sources, offsets)
        assert np.array_equal(forests[0][0], pref)
        assert np.array_equal(forests[0][1], oref)

    def test_zero_weight_arc_is_never_tight(self):
        # sources 3 and 4 reach 1 and 2 at distance 1, and the zero-weight
        # edge (1, 2) passes dist[u] + w == dist[v] both ways; taken as
        # parents, its arcs would make 1 and 2 each other's parent
        g = from_edges(5, [(1, 3), (2, 4), (1, 2)])
        src = g.arc_sources()
        w = np.where(src + g.indices == 3, 0, 1)  # arcs 1->2 and 2->1
        dist = shortest_paths(g, [3, 4], weights=w, delta=1).dist
        assert dist.tolist()[1:] == [1, 1, 0, 0]
        with returns_within(10):
            parent, owner = shortest_path_forest(g, dist, [3, 4], weights=w)
        assert parent.tolist() == [-1, 3, 4, -1, -1]
        assert owner.tolist() == [-1, 3, 4, 3, 4]
        # vertex 0 hangs off 1 by a zero-weight edge only
        g = from_edges(5, [(1, 3), (2, 4), (1, 2), (0, 1)])
        src = g.arc_sources()
        w = np.where(np.isin(src + g.indices, [1, 3]), 0, 1)  # edges (0, 1), (1, 2)
        dist = shortest_paths(g, [3, 4], weights=w, delta=1).dist
        assert dist.tolist() == [1, 1, 1, 0, 0]
        with returns_within(10), pytest.raises(ParameterError, match="vertex 0"):
            shortest_path_forest(g, dist, [3, 4], weights=w)

    def test_absorbed_float_arc_is_never_tight(self):
        # 1e-17 is below half the float spacing at 1.0, so 1.0 + 1e-17 ==
        # 1.0 and the positive-weight edge (0, 1) passes the sum test
        # both ways
        g = from_edges(4, [(3, 0), (3, 1), (0, 1)], [1.0, 1.0, 1e-17])
        dist = shortest_paths(g, 3).dist
        assert dist.tolist() == [1.0, 1.0, np.inf, 0.0]
        with returns_within(10):
            parent, owner = shortest_path_forest(g, dist, 3)
            c = est_cluster(g, 0.5, method="exact", shifts=np.array([0.0, 0, 0, 10]))
        assert parent.tolist() == [3, 3, -1, -1]
        assert owner.tolist() == [3, 3, -1, 3]
        assert c.center.tolist() == [3, 3, 2, 3]
        assert c.parent.tolist() == [3, 3, -1, -1]
        # vertex 1 reached only over the absorbed arc
        g = from_edges(3, [(2, 0), (0, 1)], [1.0, 1e-17])
        dist = shortest_paths(g, 2).dist
        assert dist.tolist() == [1.0, 1.0, 0.0]
        with returns_within(10), pytest.raises(ParameterError, match="vertex 1"):
            shortest_path_forest(g, dist, 2)

    def test_offsets_of_another_search_raise(self):
        g = path_graph(5)
        dist = shortest_paths(g, [0, 4], offsets=[0.0, 0.5]).dist
        assert shortest_path_forest(g, dist, [0, 4], [0.0, 0.5])[1].tolist() == [
            0, 0, 0, 4, 4
        ]
        # without its offset, source 4 is no root and has no tight predecessor
        with pytest.raises(ParameterError, match="no tight predecessor"):
            shortest_path_forest(g, dist, [0, 4])
