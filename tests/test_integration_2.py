"""Second integration round: cross-pipeline compositions and workload sweeps."""

import numpy as np
import pytest

import repro
from repro.graph import (
    barabasi_albert_graph,
    gnm_random_graph,
    grid_graph,
    is_connected,
    largest_component,
    with_random_weights,
)
from repro.graph.builders import induced_subgraph
from repro.graph.generators import rmat_graph
from repro.graph.parallel_connectivity import parallel_connectivity
from repro.hopsets import HopsetParams, build_hopset, exact_distance, hopset_distance
from repro.spanners import unweighted_spanner, verify_spanner
from repro.spanners.low_stretch_tree import low_stretch_spanning_tree
from repro.spanners.sparsify import spanner_sparsify

PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5)


class TestComposedPipelines:
    def test_sparsify_then_hopset(self):
        """Sparsify a dense graph, then shortcut the sparsifier: queries
        on the composition stay within multiplied budgets."""
        g = gnm_random_graph(500, 8000, seed=21, connected=True)
        sparse = spanner_sparsify(g, k=3, bundle=2, rounds=2, seed=22).graph
        hs = build_hopset(sparse, PARAMS, seed=23, method="exact")
        d_orig = exact_distance(g, 0, g.n - 1)
        est, _ = hopset_distance(hs, 0, g.n - 1)
        # sparsifier distances dominate original; hopset adds (1+eps)
        assert est >= d_orig - 1e-9
        assert np.isfinite(est)

    def test_lsst_inside_spanner(self):
        """The LSST of a spanner is a spanning tree of the original."""
        g = gnm_random_graph(300, 2400, seed=24, connected=True)
        sp = unweighted_spanner(g, 3, seed=25)
        t = low_stretch_spanning_tree(sp.subgraph(), k=3, seed=26)
        assert t.size == g.n - 1
        assert is_connected(t.subgraph())

    def test_connectivity_after_sparsify(self):
        g = gnm_random_graph(400, 4000, seed=27, connected=False)
        sparse = spanner_sparsify(g, k=2, bundle=1, rounds=2, seed=28).graph
        ncc_a, _, _ = parallel_connectivity(g, seed=29)
        ncc_b, _, _ = parallel_connectivity(sparse, seed=30)
        assert ncc_a == ncc_b

    def test_distributed_spanner_then_hopset(self):
        """Build the spanner distributedly, shortcut it centrally."""
        from oracles import distributed_unweighted_spanner

        g = grid_graph(18, 18)
        sp, _ = distributed_unweighted_spanner(g, 3, seed=31)
        hs = build_hopset(sp.subgraph(), PARAMS, seed=32)
        d = exact_distance(g, 0, g.n - 1)
        est, hops = hopset_distance(hs, 0, g.n - 1)
        assert est >= d - 1e-9
        assert est <= sp.stretch_bound * PARAMS.predicted_distortion(g.n) * d


class TestWorkloadSweeps:
    @pytest.mark.parametrize("maker", [
        lambda: barabasi_albert_graph(300, 3, seed=33),
        lambda: rmat_graph(8, edge_factor=6, seed=34),
        lambda: grid_graph(15, 15),
    ])
    def test_spanner_hopset_connectivity_on_each(self, maker):
        g0 = maker()
        comp = largest_component(g0)
        g, _ = induced_subgraph(g0, comp)
        sp = unweighted_spanner(g, 2, seed=35)
        verify_spanner(g, sp)
        hs = build_hopset(g, PARAMS, seed=36)
        hs.verify_edge_weights()
        ncc, _, _ = parallel_connectivity(g, seed=37)
        assert ncc == 1

    def test_weighted_everything_on_rgg(self):
        g0 = repro.random_geometric_graph(500, 0.08, seed=38)
        comp = largest_component(g0)
        g, _ = induced_subgraph(g0, comp)
        gw = with_random_weights(g, 1, 64, "loguniform", seed=39)
        sp = repro.weighted_spanner(gw, 3, seed=40)
        verify_spanner(gw, sp)
        t = low_stretch_spanning_tree(gw, k=3, seed=41)
        assert t.size == gw.n - 1
