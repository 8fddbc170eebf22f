"""Unit tests for graph construction and subgraph induction."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import from_edges
from repro.graph.builders import induced_subgraph, subgraph_by_edge_ids


class TestFromEdges:
    def test_self_loops_dropped(self):
        g = from_edges(3, [(0, 0), (0, 1), (2, 2)])
        assert g.m == 1

    def test_parallel_edges_merged_min_weight(self):
        g = from_edges(2, [(0, 1), (1, 0), (0, 1)], weights=[5.0, 2.0, 7.0])
        assert g.m == 1
        assert g.edge_w[0] == 2.0

    def test_orientation_canonical(self):
        g = from_edges(4, [(3, 1), (2, 0)])
        assert (g.edge_u < g.edge_v).all()

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges(3, [(0, 3)])
        with pytest.raises(GraphFormatError):
            from_edges(3, [(-1, 0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges(2, [(0, 1)], weights=[-1.0])
        # NaN slips past a bare `w <= 0` check; inf is no distance either
        for bad in (np.nan, np.inf):
            with pytest.raises(GraphFormatError, match="strictly positive"):
                from_edges(4, [(0, 1), (1, 2), (2, 3)], weights=[bad, 1.0, 2.0])

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges(2, [(0, 1)], weights=[1.0, 2.0])

    def test_float_endpoints_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges(2, np.array([[0.0, 1.0]]))

    def test_empty_edge_list(self):
        g = from_edges(4, [])
        assert g.n == 4 and g.m == 0

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges(3, np.array([[0, 1, 2]]))

    def test_default_weights_are_ones(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        assert (g.edge_w == 1.0).all()


class TestInducedSubgraph:
    def test_triangle_subset(self, triangle):
        sub, vmap = induced_subgraph(triangle, np.array([0, 1]))
        assert sub.n == 2 and sub.m == 1
        assert list(vmap) == [0, 1]

    def test_no_cross_edges_leak(self, small_gnm):
        verts = np.arange(0, small_gnm.n, 3)
        sub, vmap = induced_subgraph(small_gnm, verts)
        assert sub.n == verts.shape[0]
        # every subgraph edge maps to an original edge
        keys_orig = set(
            (int(u), int(v)) for u, v in zip(small_gnm.edge_u, small_gnm.edge_v)
        )
        for u, v, _ in sub.iter_edges():
            ou, ov = int(vmap[u]), int(vmap[v])
            assert (min(ou, ov), max(ou, ov)) in keys_orig

    def test_weights_preserved(self, small_weighted):
        verts = np.arange(small_weighted.n)  # full graph
        sub, _ = induced_subgraph(small_weighted, verts)
        assert sub.m == small_weighted.m
        assert np.allclose(np.sort(sub.edge_w), np.sort(small_weighted.edge_w))


class TestSubgraphByEdgeIds:
    def test_keeps_selected_edges(self, small_weighted):
        ids = np.array([0, 2, 4], dtype=np.int64)
        sub = subgraph_by_edge_ids(small_weighted, ids)
        assert sub.m == 3
        assert sub.n == small_weighted.n
        assert np.allclose(np.sort(sub.edge_w), np.sort(small_weighted.edge_w[ids]))
