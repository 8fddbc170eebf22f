"""Unit tests for weighted spanners (bucketing + Algorithm 3)."""

import numpy as np
import pytest

from repro.graph import gnm_random_graph, with_random_weights
from repro.graph.validation import is_subgraph
from repro.pram import PramTracker
from repro.spanners import (
    verify_spanner,
    weight_buckets,
    weighted_spanner,
    well_separated_groups,
)
from repro.spanners.weighted import group_stride


class TestBucketing:
    def test_bucket_ranges(self, small_weighted):
        b = weight_buckets(small_weighted)
        w_min = small_weighted.min_weight
        lo = w_min * np.exp2(b.astype(float))
        hi = w_min * np.exp2(b.astype(float) + 1)
        w = small_weighted.edge_w
        assert ((w >= lo - 1e-9) & (w < hi + 1e-9)).all()

    def test_unweighted_single_bucket(self, small_gnm):
        b = weight_buckets(small_gnm)
        assert (b == 0).all()

    def test_group_stride_grows_with_k(self):
        assert group_stride(2) <= group_stride(16) <= group_stride(256)

    def test_groups_partition_edges(self, small_weighted):
        b = weight_buckets(small_weighted)
        groups = well_separated_groups(b, k=4)
        total = sum(g.shape[0] for g in groups)
        assert total == small_weighted.m
        seen = np.concatenate(groups)
        assert np.unique(seen).shape[0] == small_weighted.m

    def test_groups_are_well_separated(self, small_weighted):
        b = weight_buckets(small_weighted)
        k = 4
        groups = well_separated_groups(b, k, separation=4.0)
        s = group_stride(k, 4.0)
        for grp in groups:
            if grp.size == 0:
                continue
            bucket_vals = np.unique(b[grp])
            if bucket_vals.shape[0] >= 2:
                gaps = np.diff(bucket_vals)
                assert (gaps >= s).all()
                # consecutive buckets in a group differ by >= 2^s >= 4k
                assert 2 ** gaps.min() >= 4 * k


class TestWeightedSpanner:
    def test_subgraph_and_stretch(self, small_weighted):
        sp = weighted_spanner(small_weighted, 3, seed=1)
        assert is_subgraph(sp.subgraph(), small_weighted)
        assert verify_spanner(small_weighted, sp) <= sp.stretch_bound

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_stretch_across_k(self, small_weighted, k):
        sp = weighted_spanner(small_weighted, k, seed=k)
        verify_spanner(small_weighted, sp)

    def test_big_weight_range(self):
        g = gnm_random_graph(150, 900, seed=6, connected=True)
        gw = with_random_weights(g, 1.0, 2.0**14, "loguniform", seed=7)
        sp = weighted_spanner(gw, 3, seed=8)
        verify_spanner(gw, sp)
        assert sp.meta["num_buckets"] > 5

    def test_spanning_connectivity(self, small_weighted):
        from repro.graph import connected_components

        sp = weighted_spanner(small_weighted, 4, seed=2)
        ncc_g, _ = connected_components(small_weighted)
        ncc_h, _ = connected_components(sp.subgraph())
        assert ncc_g == ncc_h

    def test_grouping_off_bigger_or_equal(self):
        # naive per-bucket scheme (ablation) produces >= edges on average
        g = gnm_random_graph(200, 1600, seed=9, connected=True)
        gw = with_random_weights(g, 1.0, 2.0**12, "loguniform", seed=10)
        with_group = np.mean([weighted_spanner(gw, 4, seed=s, grouping=True).size for s in range(3)])
        without = np.mean([weighted_spanner(gw, 4, seed=s, grouping=False).size for s in range(3)])
        assert without >= 0.9 * with_group  # naive is never much smaller

    def test_deterministic(self, small_weighted):
        a = weighted_spanner(small_weighted, 3, seed=5)
        b = weighted_spanner(small_weighted, 3, seed=5)
        assert np.array_equal(a.edge_ids, b.edge_ids)

    def test_meta(self, small_weighted):
        sp = weighted_spanner(small_weighted, 3, seed=1)
        assert sp.meta["num_groups"] >= 1
        assert sp.meta["weight_ratio"] == pytest.approx(small_weighted.weight_ratio)

    def test_tracker_parallel_groups(self, small_weighted):
        t = PramTracker(n=small_weighted.n)
        weighted_spanner(small_weighted, 3, seed=1, tracker=t)
        assert t.work > 0 and t.depth > 0

    def test_unweighted_input_degenerates_gracefully(self, small_gnm):
        sp = weighted_spanner(small_gnm, 3, seed=1)
        verify_spanner(small_gnm, sp)


class TestSeparationValidation:
    """``separation <= 1`` used to silently collapse the well-separated
    grouping into a single degenerate group; it must be rejected."""

    @pytest.mark.parametrize("separation", [1.0, 0.5, 0.0, -2.0])
    def test_weighted_spanner_rejects(self, small_weighted, separation):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError, match="separation"):
            weighted_spanner(small_weighted, 3, seed=1, separation=separation)

    @pytest.mark.parametrize("separation", [1.0, 0.25])
    def test_group_stride_rejects(self, separation):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError, match="separation"):
            group_stride(4.0, separation)

    def test_valid_separation_above_one_accepted(self, small_weighted):
        sp = weighted_spanner(small_weighted, 3, seed=1, separation=1.5)
        verify_spanner(small_weighted, sp)
