"""Unit tests for the LDD interface and spanner sparsification."""

import numpy as np
import pytest

from repro.clustering.ldd import LowDiameterDecomposition, low_diameter_decomposition
from repro.errors import ParameterError, VerificationError
from repro.graph import gnm_random_graph, is_connected
from repro.spanners.sparsify import spanner_sparsify


class TestLDD:
    def test_certificate_holds(self, small_gnm):
        d = low_diameter_decomposition(small_gnm, 0.3, seed=1)
        d.validate()
        assert d.num_pieces >= 1
        assert 0.0 <= d.cut_fraction <= 1.0
        assert d.attempts >= 1

    def test_pieces_partition(self, small_gnm):
        d = low_diameter_decomposition(small_gnm, 0.3, seed=2)
        pieces = d.pieces()
        total = np.concatenate(pieces)
        assert np.array_equal(np.sort(total), np.arange(small_gnm.n))

    def test_piece_of_matches_labels(self, small_gnm):
        d = low_diameter_decomposition(small_gnm, 0.3, seed=3)
        for v in range(0, small_gnm.n, 13):
            assert d.piece_of(v) == d.clustering.labels[v]

    def test_smaller_beta_fewer_cuts(self, small_grid):
        rng = np.random.default_rng(4)
        lo = np.mean([
            low_diameter_decomposition(small_grid, 0.05, seed=rng).cut_fraction
            for _ in range(4)
        ])
        hi = np.mean([
            low_diameter_decomposition(small_grid, 0.8, seed=rng).cut_fraction
            for _ in range(4)
        ])
        assert lo < hi

    def test_invalid_beta(self, small_gnm):
        with pytest.raises(ParameterError):
            low_diameter_decomposition(small_gnm, 0.0)

    def test_impossible_bound_raises(self, small_grid):
        # diameter_constant so small no clustering can certify it
        with pytest.raises(VerificationError):
            low_diameter_decomposition(
                small_grid, 0.05, seed=5, diameter_constant=0.001, max_attempts=2
            )

    def test_weighted_graph(self, small_int_weighted):
        d = low_diameter_decomposition(small_int_weighted, 0.1, seed=6)
        d.validate()

    def test_tampered_certificate_detected(self, small_gnm):
        d = low_diameter_decomposition(small_gnm, 0.3, seed=7)
        bad = LowDiameterDecomposition(
            graph=d.graph,
            clustering=d.clustering,
            beta=d.beta,
            diameter_bound=0.0,  # impossible certificate
            cut_fraction=d.cut_fraction,
            attempts=1,
        )
        if d.clustering.tree_radii().max() > 0:
            with pytest.raises(VerificationError):
                bad.validate()


class TestSparsify:
    def test_connectivity_preserved(self):
        g = gnm_random_graph(300, 3000, seed=8, connected=True)
        res = spanner_sparsify(g, k=3, bundle=2, rounds=3, seed=9)
        assert is_connected(res.graph)
        assert res.graph.n == g.n

    def test_sizes_decrease(self):
        g = gnm_random_graph(300, 4500, seed=10, connected=True)
        res = spanner_sparsify(g, k=3, bundle=1, rounds=3, seed=11)
        assert res.sizes[0] == g.m
        assert res.sizes[-1] < res.sizes[0]
        # geometric-ish decay until the spanner floor
        assert res.sizes[1] <= 0.8 * res.sizes[0]

    def test_expected_weight_preserved_roughly(self):
        g = gnm_random_graph(400, 6000, seed=12, connected=True)
        res = spanner_sparsify(g, k=2, bundle=1, rounds=1, seed=13)
        total_before = g.edge_w.sum()
        total_after = res.graph.edge_w.sum()
        # resampling preserves expectation; 1 round, 6000 edges -> tight-ish
        assert 0.7 * total_before <= total_after <= 1.4 * total_before

    def test_weighted_input(self, small_weighted):
        res = spanner_sparsify(small_weighted, k=3, bundle=1, rounds=2, seed=14)
        assert res.graph.n == small_weighted.n
        from repro.graph import connected_components

        ncc_g, _ = connected_components(small_weighted)
        ncc_h, _ = connected_components(res.graph)
        assert ncc_g == ncc_h

    def test_zero_rounds_identity(self, small_gnm):
        res = spanner_sparsify(small_gnm, rounds=0, seed=15)
        assert res.graph == small_gnm
        assert res.rounds_run == 0

    def test_parameter_validation(self, small_gnm):
        with pytest.raises(ParameterError):
            spanner_sparsify(small_gnm, bundle=0)
        with pytest.raises(ParameterError):
            spanner_sparsify(small_gnm, keep_probability=0.0)

    def test_distance_stretch_bounded_single_round(self):
        # one round: every distance is preserved within the spanner
        # stretch bound on kept-edge weights (weights only grow on
        # resampled edges)
        from repro.paths.dijkstra import dijkstra_scipy

        g = gnm_random_graph(150, 1500, seed=16, connected=True)
        res = spanner_sparsify(g, k=2, bundle=1, rounds=1, seed=17)
        d_g = dijkstra_scipy(g, 0)
        d_h = dijkstra_scipy(res.graph, 0)
        # sparsified distances dominate originals (edges removed/upweighted)
        assert (d_h >= d_g - 1e-9).all()

