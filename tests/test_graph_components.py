"""Unit tests for the connected-component queries."""

import numpy as np

from repro.graph import (
    connected_components,
    from_edges,
    is_connected,
    largest_component,
)


class TestConnectedComponents:
    def test_connected_graph_one_component(self, small_grid):
        ncc, labels = connected_components(small_grid)
        assert ncc == 1
        assert (labels == 0).all()

    def test_disconnected(self, disconnected):
        ncc, labels = connected_components(disconnected)
        assert ncc == 3  # two triangles + isolated vertex
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]
        assert labels[6] not in (labels[0], labels[3])

    def test_empty_graph(self, empty_graph):
        ncc, labels = connected_components(empty_graph)
        assert ncc == 5
        assert np.unique(labels).shape[0] == 5

    def test_is_connected(self, small_grid, disconnected):
        assert is_connected(small_grid)
        assert not is_connected(disconnected)

    def test_single_vertex_connected(self):
        g = from_edges(1, [])
        assert is_connected(g)

    def test_largest_component(self, disconnected):
        comp = largest_component(disconnected)
        assert comp.shape[0] == 3
