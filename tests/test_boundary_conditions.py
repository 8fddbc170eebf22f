"""Boundary conditions: empty inputs, zero budgets, unreachable targets."""

import numpy as np
import pytest

from repro.graph import from_edges, path_graph
from repro.paths import hop_limited_distances
from repro.paths.weighted_bfs import dial_sssp


def _csr(g):
    return g.indptr, g.indices, g.weights


class TestZeroBudgets:
    def test_zero_hop_budget(self):
        g = path_graph(5)
        dist, hops, rounds = hop_limited_distances(_csr(g), np.array([0]), h=0)
        assert dist[0] == 0.0
        assert np.isinf(dist[1:]).all()
        assert rounds == 0

    def test_multiple_identical_sources(self):
        g = path_graph(5)
        dist, _, _ = hop_limited_distances(_csr(g), np.array([0, 0, 0]), h=10)
        assert dist[4] == 4.0


class TestEmptyStructures:
    def test_bellman_ford_on_edgeless_graph(self, empty_graph):
        dist, hops, _ = hop_limited_distances(_csr(empty_graph), np.array([2]), h=5)
        assert dist[2] == 0.0
        assert np.isinf(np.delete(dist, 2)).all()

    def test_dial_on_edgeless_graph(self, empty_graph):
        dist, parent, owner, levels = dial_sssp(empty_graph, np.array([1]))
        assert dist[1] == 0
        assert owner[1] == 1
        assert (owner[np.arange(5) != 1] == -1).all()

    def test_quotient_of_edgeless_graph(self, empty_graph):
        from repro.graph.quotient import contract_graph

        q = contract_graph(empty_graph, np.zeros(5, dtype=np.int64))
        assert q.graph.n == 1 and q.graph.m == 0

    def test_spanner_of_edgeless_graph(self, empty_graph):
        from repro.spanners import unweighted_spanner

        sp = unweighted_spanner(empty_graph, 2, seed=1)
        assert sp.size == 0

    def test_hopset_of_edgeless_graph(self, empty_graph):
        from repro.hopsets import HopsetParams, build_hopset

        hs = build_hopset(empty_graph, HopsetParams(), seed=1)
        assert hs.size == 0


class TestDisconnectedInputs:
    def test_distributed_spanner_on_disconnected(self, disconnected):
        from repro.distributed import distributed_unweighted_spanner
        from repro.graph import connected_components

        sp, net = distributed_unweighted_spanner(disconnected, 2, seed=1)
        ncc_g, _ = connected_components(disconnected)
        ncc_h, _ = connected_components(sp.subgraph())
        assert ncc_g == ncc_h

    def test_weighted_hopset_on_disconnected(self, disconnected):
        from repro.hopsets import HopsetParams, build_weighted_hopset

        wh = build_weighted_hopset(disconnected, HopsetParams(), seed=2)
        est, _ = wh.query(0, 3)
        assert np.isinf(est)  # cross-component query reports infinity

    def test_lsst_keeps_isolated_vertex(self, disconnected):
        from repro.spanners.low_stretch_tree import low_stretch_spanning_tree

        t = low_stretch_spanning_tree(disconnected, k=2, seed=3)
        h = t.subgraph()
        assert h.n == disconnected.n  # vertex 6 survives with degree 0
        assert h.degree(6) == 0

    def test_scale_decomposition_routes_within_components(self):
        from repro.hopsets import build_weight_scales

        g = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)], weights=[1.0, 2.0, 4.0, 8.0])
        dec = build_weight_scales(g, eps=0.25)
        assert dec.query_distance(0, 2) == pytest.approx(3.0)
        assert dec.query_distance(3, 5) == pytest.approx(12.0)


class TestSingleVertex:
    def test_everything_on_k1(self):
        g = from_edges(1, [])
        from repro.clustering import est_cluster
        from repro.hopsets import HopsetParams, build_hopset
        from repro.spanners import unweighted_spanner

        assert est_cluster(g, 0.5, seed=1, method="exact").num_clusters == 1
        assert unweighted_spanner(g, 2, seed=1).size == 0
        assert build_hopset(g, HopsetParams(), seed=1).size == 0
