"""Unit tests for graph construction and subgraph induction."""

import numpy as np
import pytest

from oracles import induced_subgraph_reference
from repro.errors import GraphFormatError
from repro.graph import (
    barabasi_albert_graph,
    from_edges,
    gnm_random_graph,
    grid_graph,
    with_random_weights,
)
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


class TestInducedSubgraphMatchesReference:
    """``induced_subgraph`` is the one-group ``induced_subgraph_forest``;
    the cut it replaced (``oracles.induced_subgraph_reference``) must
    give the same CSR arrays and vertex map on every subset."""

    @pytest.mark.parametrize("kind", ["ba", "weighted-gnm"])
    def test_random_subsets_of_every_size(self, kind):
        if kind == "ba":
            g = barabasi_albert_graph(160, 3, seed=41)
        else:
            g = with_random_weights(
                gnm_random_graph(120, 480, seed=42), 1.0, 50.0, "loguniform", seed=43
            )
        rng = np.random.default_rng(44)
        fields = ("indptr", "indices", "weights", "edge_ids", "edge_u", "edge_v", "edge_w")
        for size in range(g.n + 1):
            picked = rng.permutation(g.n)[:size]
            for vs in (picked, np.sort(picked)):
                sub, vmap = induced_subgraph(g, vs)
                ref, ref_vmap = induced_subgraph_reference(g, vs)
                assert sub.n == ref.n == size
                assert vmap.dtype == ref_vmap.dtype
                assert np.array_equal(vmap, ref_vmap)
                for f in fields:
                    a, b = getattr(sub, f), getattr(ref, f)
                    assert a.dtype == b.dtype, f
                    assert np.array_equal(a, b), f

    @pytest.mark.parametrize(
        "vs,message",
        [
            ([-1, 7, 5], "vertex -1 out of range"),
            ([9], "vertex 9 out of range"),
            ([4, 12, 0], "vertex 12 out of range"),
            ([0, 0, 1], "vertex 0 is listed twice"),
            ([3, 8, 2, 8], "vertex 8 is listed twice"),
        ],
    )
    def test_bad_ids_raise_typed_error(self, vs, message):
        with pytest.raises(GraphFormatError, match=message):
            induced_subgraph(grid_graph(3, 3), np.array(vs))
