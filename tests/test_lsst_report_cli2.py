"""Unit tests for low-stretch trees and the newer CLI commands."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graph import (
    from_edges,
    gnm_random_graph,
    grid_graph,
    is_connected,
    path_graph,
    with_random_weights,
)
from repro.spanners.low_stretch_tree import (
    average_stretch,
    bfs_tree,
    low_stretch_spanning_tree,
    random_spanning_tree,
)


class TestLowStretchTree:
    def test_is_spanning_tree(self, small_gnm):
        t = low_stretch_spanning_tree(small_gnm, k=4, seed=1)
        assert t.size == small_gnm.n - 1
        assert is_connected(t.subgraph())

    def test_weighted_spanning_tree(self, small_weighted):
        t = low_stretch_spanning_tree(small_weighted, k=4, seed=2)
        assert t.size == small_weighted.n - 1
        assert is_connected(t.subgraph())

    def test_forest_on_disconnected(self, disconnected):
        t = low_stretch_spanning_tree(disconnected, k=2, seed=3)
        from repro.graph import connected_components

        ncc, _ = connected_components(disconnected)
        assert t.size == disconnected.n - ncc

    def test_path_graph_identity(self):
        g = path_graph(20)
        t = low_stretch_spanning_tree(g, k=3, seed=4)
        assert t.size == g.m

    def test_average_stretch_reasonable_on_grid(self):
        g = grid_graph(16, 16)
        t = low_stretch_spanning_tree(g, k=4, seed=5)
        avg = average_stretch(g, t)
        # polylog-ish: on a 256-vertex grid anything <= ~20 is sane;
        # BFS trees sit near the diameter scale
        assert 1.0 <= avg <= 25.0

    def test_beats_bfs_tree_on_weighted_graph(self):
        g = with_random_weights(
            gnm_random_graph(200, 1200, seed=6, connected=True), 1, 512, "loguniform", seed=7
        )
        lsst = np.mean([
            average_stretch(g, low_stretch_spanning_tree(g, k=4, seed=s)) for s in range(3)
        ])
        bfs_avg = average_stretch(g, bfs_tree(g))
        assert lsst <= bfs_avg * 1.1  # weight-aware contraction wins or ties

    def test_baselines_are_trees(self, small_gnm):
        for t in (bfs_tree(small_gnm), random_spanning_tree(small_gnm, seed=8)):
            assert t.size == small_gnm.n - 1
            assert is_connected(t.subgraph())

    def test_invalid_k(self, small_gnm):
        with pytest.raises(ParameterError):
            low_stretch_spanning_tree(small_gnm, k=0.5)

    def test_spans_after_187_contracting_iterations(self):
        # weights over 60 powers of two: the contraction needs 187
        # contracting iterations to span the graph (the 60 empty checks
        # that end the weight levels do not count)
        g = gnm_random_graph(5000, 20000, seed=3, connected=True)
        w = np.exp2(np.random.default_rng(1).uniform(0, 60, g.m))
        g = from_edges(g.n, np.stack([g.edge_u, g.edge_v], axis=1), weights=w)
        t = low_stretch_spanning_tree(g, seed=1)
        assert t.size == g.n - 1
        assert t.meta["iterations"] == 187
        assert t.size == g.n - 1
        assert is_connected(t.subgraph())

    def test_deterministic(self, small_gnm):
        a = low_stretch_spanning_tree(small_gnm, k=3, seed=9)
        b = low_stretch_spanning_tree(small_gnm, k=3, seed=9)
        assert np.array_equal(a.edge_ids, b.edge_ids)


class TestNewCLICommands:
    def test_connectivity(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "g.txt"
        main(["generate", "--kind", "gnm", "--n", "100", "--m", "150", "-o", str(out)])
        assert main(["connectivity", "-i", str(out)]) == 0
        assert "components:" in capsys.readouterr().out

    def test_sparsify(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import load_edgelist

        g_path = tmp_path / "g.txt"
        s_path = tmp_path / "s.txt"
        main(["generate", "--kind", "gnm", "--n", "200", "--m", "2000", "-o", str(g_path)])
        assert main(["sparsify", "-i", str(g_path), "--rounds", "2", "-o", str(s_path)]) == 0
        sp = load_edgelist(s_path)
        assert sp.m < 2000

    def test_docstring_lists_every_subcommand(self):
        # the module docstring is the command reference; it once listed
        # 8 of the 11 subcommands
        import argparse
        import re

        from repro import cli

        ref = cli.__doc__.split("Commands\n--------\n", 1)[1]
        documented = set(re.findall(r"^``([a-z-]+)``$", ref, flags=re.M))
        sub = next(
            a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert documented == set(sub.choices)
