"""Unit tests for stretch verification utilities."""

import numpy as np
import pytest

from repro.errors import VerificationError
from repro.graph import from_edges, path_graph
from repro.graph.builders import subgraph_by_edge_ids
from repro.spanners import edge_stretches, max_edge_stretch, verify_spanner
from repro.spanners.result import SpannerResult, edge_id_lookup


class TestEdgeStretches:
    def test_identity_spanner_stretch_at_most_one(self, small_weighted):
        # dist_H(u,v) <= w(u,v) when H = G; strict < happens when an edge
        # is not the shortest route between its endpoints
        full = SpannerResult(
            graph=small_weighted,
            edge_ids=np.arange(small_weighted.m),
            stretch_bound=1.0,
        )
        s = edge_stretches(small_weighted, full)
        assert (s <= 1.0 + 1e-9).all()
        assert s.max() == pytest.approx(1.0)

    def test_identity_spanner_unweighted_exactly_one(self, small_gnm):
        full = SpannerResult(
            graph=small_gnm, edge_ids=np.arange(small_gnm.m), stretch_bound=1.0
        )
        assert np.allclose(edge_stretches(small_gnm, full), 1.0)

    def test_dropped_edge_detected(self):
        # cycle: dropping one edge forces stretch n-1 on it
        from repro.graph import cycle_graph

        g = cycle_graph(10)
        sp = SpannerResult(graph=g, edge_ids=np.arange(1, g.m), stretch_bound=9.0)
        s = edge_stretches(g, sp)
        assert s.max() == pytest.approx(9.0)

    def test_disconnecting_spanner_gives_inf(self):
        g = path_graph(5)
        sp = SpannerResult(graph=g, edge_ids=np.array([0, 1, 3]), stretch_bound=1.0)
        s = edge_stretches(g, sp)
        assert np.isinf(s).any()

    def test_sampling_subset(self, small_gnm):
        full = SpannerResult(
            graph=small_gnm, edge_ids=np.arange(small_gnm.m), stretch_bound=1.0
        )
        s = edge_stretches(small_gnm, full, sample_edges=17, seed=1)
        assert s.shape[0] == 17

    def test_accepts_raw_subgraph(self, small_gnm):
        h = subgraph_by_edge_ids(small_gnm, np.arange(small_gnm.m))
        assert max_edge_stretch(small_gnm, h) == pytest.approx(1.0)

    def test_verify_raises_on_violation(self):
        from repro.graph import cycle_graph

        g = cycle_graph(12)
        sp = SpannerResult(graph=g, edge_ids=np.arange(1, g.m), stretch_bound=2.0)
        with pytest.raises(VerificationError):
            verify_spanner(g, sp)


class TestEdgeIdLookup:
    def test_lookup_roundtrip(self, small_gnm):
        g = small_gnm
        ids = edge_id_lookup(g, g.edge_u, g.edge_v)
        assert np.array_equal(ids, np.arange(g.m))

    def test_lookup_reversed_orientation(self, small_gnm):
        g = small_gnm
        ids = edge_id_lookup(g, g.edge_v[:5], g.edge_u[:5])
        assert np.array_equal(ids, np.arange(5))

    def test_missing_edge_raises(self, triangle):
        g = from_edges(4, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(KeyError):
            edge_id_lookup(g, np.array([0]), np.array([3]))
