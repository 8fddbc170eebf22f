"""Unit tests for Algorithm 2 (unweighted spanners)."""

import numpy as np
import pytest

from oracles import boundary_edge_ids_reference
from repro.errors import ParameterError
from repro.graph import gnm_random_graph, grid_graph, path_graph
from repro.graph.csr import build_csr
from repro.graph.validation import is_subgraph
from repro.pram import PramTracker
from repro.spanners import max_edge_stretch, unweighted_spanner, verify_spanner
from repro.spanners.result import boundary_edge_ids
from repro.spanners.unweighted import spanner_beta


class TestUnweightedSpanner:
    def test_is_subgraph_and_spanning(self, small_gnm):
        sp = unweighted_spanner(small_gnm, 3, seed=1)
        h = sp.subgraph()
        assert is_subgraph(h, small_gnm)
        from repro.graph import is_connected

        assert is_connected(h)  # input was connected; forest + extras span

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_stretch_within_bound(self, small_gnm, k):
        sp = unweighted_spanner(small_gnm, k, seed=k)
        assert verify_spanner(small_gnm, sp) <= sp.stretch_bound

    def test_stretch_usually_much_better(self, small_gnm):
        sp = unweighted_spanner(small_gnm, 3, seed=2)
        # in practice stretch is close to 2k-1, far under the certified O(k)
        assert max_edge_stretch(small_gnm, sp) <= 2 * 3 + 3

    def test_size_shrinks_with_k(self):
        g = gnm_random_graph(300, 2500, seed=3, connected=True)
        sizes = []
        for k in (1, 3, 6):
            reps = [unweighted_spanner(g, k, seed=s).size for s in range(3)]
            sizes.append(np.mean(reps))
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_size_bound_holds_on_average(self):
        g = gnm_random_graph(400, 4000, seed=4, connected=True)
        k = 2
        sizes = [unweighted_spanner(g, k, seed=s).size for s in range(5)]
        bound = g.n ** (1 + 1 / k)
        assert np.mean(sizes) <= 3 * bound  # constant-factor slack

    def test_path_graph_keeps_everything(self):
        g = path_graph(20)
        sp = unweighted_spanner(g, 3, seed=1)
        assert sp.size == g.m  # a path has no removable edges

    def test_rejects_weighted_input(self, small_weighted):
        with pytest.raises(ParameterError):
            unweighted_spanner(small_weighted, 3)

    def test_rejects_bad_k(self, small_gnm):
        with pytest.raises(ParameterError):
            unweighted_spanner(small_gnm, 0.5)

    def test_meta_populated(self, small_gnm):
        sp = unweighted_spanner(small_gnm, 3, seed=1)
        assert sp.meta["k"] == 3.0
        assert sp.meta["num_clusters"] >= 1
        assert sp.meta["forest_edges"] + sp.meta["boundary_edges"] >= sp.size

    def test_spanner_beta_formula(self):
        import math

        assert spanner_beta(100, 2) == pytest.approx(math.log(100) / 4)

    def test_work_linear(self, small_gnm):
        t = PramTracker(n=small_gnm.n)
        unweighted_spanner(small_gnm, 3, seed=1, tracker=t)
        assert t.work <= 40 * small_gnm.m  # O(m) with modest constants

    def test_reuse_clustering(self, small_gnm):
        from repro.clustering import est_cluster

        c = est_cluster(small_gnm, spanner_beta(small_gnm.n, 3), seed=5)
        sp1 = unweighted_spanner(small_gnm, 3, clustering=c)
        sp2 = unweighted_spanner(small_gnm, 3, clustering=c)
        assert np.array_equal(sp1.edge_ids, sp2.edge_ids)

    @pytest.mark.parametrize("other", ["grid5x5", "path5"])
    def test_rejects_clustering_of_another_graph(self, other):
        from repro.clustering import est_cluster

        g = grid_graph(4, 4)
        h = grid_graph(5, 5) if other == "grid5x5" else path_graph(5)
        c = est_cluster(h, spanner_beta(h.n, 3), seed=5)
        with pytest.raises(
            ParameterError, match=f"covers {h.n} vertices but the graph has 16"
        ):
            unweighted_spanner(g, 3, clustering=c)

    def test_rejects_clustering_of_another_beta(self):
        from repro.clustering import est_cluster

        # at beta 0.001 the clusters outgrow the radius that k=3's
        # stretch bound (49) assumes: the spanner's edges stretch to 79
        g = grid_graph(40, 40)
        c = est_cluster(g, 0.001, seed=1)
        with pytest.raises(ParameterError, match="beta 0.001"):
            unweighted_spanner(g, 3, clustering=c)

    def test_density_property(self, small_gnm):
        sp = unweighted_spanner(small_gnm, 3, seed=1)
        assert sp.density == pytest.approx(sp.size / small_gnm.n)

    def test_deterministic_given_seed(self, small_gnm):
        a = unweighted_spanner(small_gnm, 3, seed=42)
        b = unweighted_spanner(small_gnm, 3, seed=42)
        assert np.array_equal(a.edge_ids, b.edge_ids)

    def test_disconnected_input_spans_components(self, disconnected):
        sp = unweighted_spanner(disconnected, 2, seed=1)
        from repro.graph import connected_components

        ncc_g, _ = connected_components(disconnected)
        ncc_h, _ = connected_components(sp.subgraph())
        assert ncc_g == ncc_h


class TestBoundaryEdgesMatchReference:
    """The boundary pass over the cut edges against the pass over all
    ``2m`` arcs it replaced (``oracles.boundary_edge_ids_reference``):
    the same ids in the same order, and the same semisort charge, under
    random labellings from one cluster to all-singletons."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_labels(self, seed):
        rng = np.random.default_rng(seed)
        # the larger graphs take the radix path of the dedup
        n = int(rng.choice([1, 2, 40, 700, 3000]))
        m = min(int(rng.integers(0, 4 * n + 1)), n * (n - 1) // 2)
        g = gnm_random_graph(n, m, seed=seed)
        for num_labels in (1, 2, 5, n):
            labels = rng.integers(0, num_labels, n)
            t, ref_t = PramTracker(n=n), PramTracker(n=n)
            got = boundary_edge_ids(g, labels, t)
            want = boundary_edge_ids_reference(g, labels, ref_t)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert (t.work, t.depth) == (ref_t.work, ref_t.depth)

    def test_edges_listed_in_any_order(self):
        # builders list edges by (u, v); here edge ids ascend with
        # neither endpoint
        rng = np.random.default_rng(5)
        base = gnm_random_graph(2000, 8000, seed=5)
        perm = rng.permutation(base.m)
        g = build_csr(base.n, base.edge_u[perm], base.edge_v[perm], base.edge_w[perm])
        labels = rng.integers(0, 300, g.n)
        assert np.array_equal(
            boundary_edge_ids(g, labels), boundary_edge_ids_reference(g, labels)
        )
