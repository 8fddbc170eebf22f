"""Unit tests for parallel connectivity [SDB14] and per-level hopset
diagnostics."""

import numpy as np
import pytest

from repro.errors import ParameterError, VerificationError
from repro.graph import (
    connected_components,
    gnm_random_graph,
    grid_graph,
    path_graph,
)
from repro.graph.parallel_connectivity import (
    edges_decay_trajectory,
    parallel_connectivity,
)
from repro.hopsets import HopsetParams, build_hopset
from repro.pram import PramTracker

from oracles import check_level_invariants

PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5)


class TestParallelConnectivity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy(self, seed):
        g = gnm_random_graph(150, 180, seed=seed)  # sparse: many components
        ncc, labels, rounds = parallel_connectivity(g, seed=seed + 10)
        ncc_ref, labels_ref = connected_components(g)
        assert ncc == ncc_ref
        for comp in range(ncc_ref):
            members = np.flatnonzero(labels_ref == comp)
            assert np.unique(labels[members]).shape[0] == 1

    def test_connected_graph_single_label(self, small_grid):
        ncc, labels, rounds = parallel_connectivity(small_grid, seed=1)
        assert ncc == 1
        assert (labels == 0).all()
        assert rounds >= 1

    def test_disconnected(self, disconnected):
        ncc, labels, _ = parallel_connectivity(disconnected, seed=2)
        assert ncc == 3

    def test_empty_graph(self, empty_graph):
        ncc, labels, rounds = parallel_connectivity(empty_graph, seed=3)
        assert ncc == 5 and rounds == 0

    def test_geometric_edge_decay(self):
        g = gnm_random_graph(500, 5000, seed=4, connected=True)
        sizes = edges_decay_trajectory(g, beta=0.2, seed=5)
        assert sizes[-1] == 0
        # after two rounds the edge count collapsed substantially
        assert sizes[min(2, len(sizes) - 1)] <= 0.7 * sizes[0]

    def test_smaller_beta_fewer_rounds(self):
        g = gnm_random_graph(400, 3000, seed=6, connected=True)
        rounds = []
        for beta in (0.05, 0.8):
            r = np.mean([
                parallel_connectivity(g, beta=beta, seed=s)[2] for s in range(3)
            ])
            rounds.append(r)
        assert rounds[0] <= rounds[1]

    def test_invalid_beta(self, small_gnm):
        with pytest.raises(ParameterError):
            parallel_connectivity(small_gnm, beta=0.0)

    def test_tracker_charged(self, small_gnm):
        t = PramTracker(n=small_gnm.n)
        parallel_connectivity(small_gnm, seed=7, tracker=t)
        assert t.work > 0

    def test_exact_method(self, small_gnm):
        ncc, _, _ = parallel_connectivity(small_gnm, seed=8, method="exact")
        assert ncc == 1


class TestLevelDiagnostics:
    @pytest.fixture(scope="class")
    def built(self):
        g = grid_graph(22, 22)
        return build_hopset(g, PARAMS, seed=9)

    def test_invariants_hold(self, built):
        check_level_invariants(built, PARAMS)

    def test_tampered_beta_detected(self, built):
        from dataclasses import replace

        bad_levels = list(built.levels)
        bad_levels[0] = replace(bad_levels[0], beta=bad_levels[-1].beta * 2)
        from repro.hopsets.result import HopsetResult

        bad = HopsetResult(
            graph=built.graph, eu=built.eu, ev=built.ev, ew=built.ew,
            kind=built.kind, levels=bad_levels, meta=built.meta,
        )
        with pytest.raises(VerificationError):
            check_level_invariants(bad, PARAMS)

    def test_empty_hopset_ok(self):
        g = path_graph(2)
        hs = build_hopset(g, PARAMS, seed=10)
        check_level_invariants(hs, PARAMS)
