"""Seeded equivalence between the hopset builder and its depth-first oracle.

The level-synchronous builder is a *re-scheduling* of Algorithm 4, not
a different algorithm: for any fixed seed it must emit exactly the edge
set the depth-first oracle (``tests/oracles``) emits — same endpoints,
same weights, same star/clique kinds — on every weight type and
star-weight mode.  These tests pin that, plus the forest primitives the
builder is built on.
"""

import numpy as np
import pytest

from repro.clustering import est_cluster, est_cluster_forest
from repro.clustering.shifts import sample_shifts
from repro.errors import GraphFormatError
from repro.graph import (
    from_edges,
    gnm_random_graph,
    grid_graph,
    induced_subgraph,
    induced_subgraph_forest,
    with_random_weights,
)
from repro.hopsets import HopsetParams, build_hopset, build_limited_hopset
from repro.pram import PramTracker

from oracles import build_hopset_recursive
from oracles.hopsets import _cluster_method

PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5)


def canonical_edges(hs):
    """Order-independent (u, v, w, kind) representation of a hopset."""
    lo = np.minimum(hs.eu, hs.ev)
    hi = np.maximum(hs.eu, hs.ev)
    order = np.lexsort((hs.kind, hs.ew, hi, lo))
    return lo[order], hi[order], hs.ew[order], hs.kind[order]


def assert_same_hopset(a, b):
    assert a.size == b.size
    (lu, lv, lw, lk), (ru, rv, rw, rk) = canonical_edges(a), canonical_edges(b)
    assert np.array_equal(lu, ru)
    assert np.array_equal(lv, rv)
    assert np.allclose(lw, rw)
    assert np.array_equal(lk, rk)


def both(g, seed, **kw):
    rec = build_hopset_recursive(g, PARAMS, seed=seed, **kw)
    bat = build_hopset(g, PARAMS, seed=seed, **kw)
    return rec, bat


class TestSeededEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("star", ["tree", "exact"])
    def test_unweighted_grid(self, seed, star):
        rec, bat = both(grid_graph(20, 20), seed, star_weights=star)
        assert rec.size > 0
        assert_same_hopset(rec, bat)

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("star", ["tree", "exact"])
    def test_integer_weights(self, seed, star, small_int_weighted):
        rec, bat = both(small_int_weighted, seed, star_weights=star)
        assert_same_hopset(rec, bat)

    @pytest.mark.parametrize("method", ["exact", "auto"])
    def test_float_weights(self, method, small_weighted):
        rec, bat = both(small_weighted, 5, method=method)
        assert_same_hopset(rec, bat)

    def test_disconnected_graph(self):
        g = gnm_random_graph(300, 700, seed=31)  # typically several components
        rec, bat = both(g, 2)
        assert_same_hopset(rec, bat)

    def test_huge_integral_weights_stay_exact(self):
        # weights past int64 (and inf-adjacent magnitudes) must not be
        # misrouted to Dial mode by the batched mode dispatch — builder
        # and oracle fall through to the exact float engine and agree
        import warnings

        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6), (1, 4)]
        w = [1.0, 2.0, float(2**63), 1.5, 3.0, 2.5, 4.0, 1.0]
        g = from_edges(7, edges, w)
        params = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.0, gamma2=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rec = build_hopset_recursive(g, params, seed=1)
            bat = build_hopset(g, params, seed=1)
        assert rec.size > 0
        assert_same_hopset(rec, bat)

    def test_level_stats_agree(self):
        rec, bat = both(grid_graph(22, 22), 9)
        assert len(rec.levels) == len(bat.levels)
        for a, b in zip(rec.levels, bat.levels):
            assert (a.level, a.subproblems, a.vertices, a.clusters) == (
                b.level,
                b.subproblems,
                b.vertices,
                b.clusters,
            )
            assert (a.large_clusters, a.star_edges, a.clique_edges) == (
                b.large_clusters,
                b.star_edges,
                b.clique_edges,
            )

    def test_limited_hopset_equivalent(self, monkeypatch):
        # the same Theorem C.2 iteration with every inner Algorithm 4
        # build swapped for the oracle
        import repro.hopsets.limited as limited

        g = grid_graph(10, 10)
        b = build_limited_hopset(g, alpha=0.6, seed=4)
        monkeypatch.setattr(limited, "build_hopset", build_hopset_recursive)
        a = build_limited_hopset(g, alpha=0.6, seed=4)
        assert a.size == b.size
        order_a = np.lexsort((a.ew, a.ev, a.eu))
        order_b = np.lexsort((b.ew, b.ev, b.eu))
        assert np.array_equal(a.eu[order_a], b.eu[order_b])
        assert np.array_equal(a.ev[order_a], b.ev[order_b])
        assert np.allclose(a.ew[order_a], b.ew[order_b])


class TestBatchedBuilder:
    def test_deterministic(self):
        g = grid_graph(14, 14)
        a = build_hopset(g, PARAMS, seed=7)
        b = build_hopset(g, PARAMS, seed=7)
        assert np.array_equal(a.eu, b.eu)
        assert np.array_equal(a.ev, b.ev)
        assert np.allclose(a.ew, b.ew)

    def test_edge_weights_certify(self):
        hs = build_hopset(grid_graph(18, 18), PARAMS, seed=6)
        hs.verify_edge_weights()  # Definition 2.4 item 2

    def test_tracker_charged(self):
        g = grid_graph(16, 16)
        t = PramTracker(n=g.n)
        build_hopset(g, PARAMS, seed=2, tracker=t)
        assert t.work > 0 and t.depth > 0 and t.rounds > 0

    def test_tiny_graph_no_edges(self):
        g = from_edges(2, [(0, 1)])
        assert build_hopset(g, PARAMS, seed=1).size == 0


class TestForestPrimitives:
    def test_forest_blocks_match_induced_subgraphs(self, small_weighted):
        ids = np.arange(small_weighted.n)
        groups = [ids[:30], ids[40:70], ids[75:]]
        forest = induced_subgraph_forest(small_weighted, groups)
        assert forest.num_groups == 3
        for j, grp in enumerate(groups):
            sub, _ = induced_subgraph(small_weighted, grp)
            lo, hi = int(forest.ptr[j]), int(forest.ptr[j + 1])
            assert hi - lo == sub.n
            assert np.array_equal(forest.vmap[lo:hi], grp)
            # same per-block adjacency: compare canonical edge multisets
            bu = forest.graph.edge_u
            bv = forest.graph.edge_v
            mask = (bu >= lo) & (bu < hi)
            block = np.stack(
                [
                    np.minimum(bu[mask] - lo, bv[mask] - lo),
                    np.maximum(bu[mask] - lo, bv[mask] - lo),
                ]
            )
            ref = np.stack(
                [
                    np.minimum(sub.edge_u, sub.edge_v),
                    np.maximum(sub.edge_u, sub.edge_v),
                ]
            )
            assert np.array_equal(
                block[:, np.lexsort(block)], ref[:, np.lexsort(ref)]
            )

    def test_forest_rejects_overlap(self, small_grid):
        with pytest.raises(GraphFormatError):
            induced_subgraph_forest(
                small_grid, [np.array([0, 1, 2]), np.array([2, 3])]
            )

    @pytest.mark.parametrize(
        "kind,method",
        [
            ("unweighted", "round"),
            ("unweighted", "exact"),
            ("integer", "round"),
            ("float", "exact"),
            ("float", "auto"),
        ],
    )
    def test_forest_clustering_matches_per_block(self, kind, method):
        g = gnm_random_graph(240, 960, seed=5, connected=True)
        if kind == "integer":
            g = with_random_weights(g, 1, 9, "integer", seed=6)
        elif kind == "float":
            g = with_random_weights(g, 1.0, 40.0, "loguniform", seed=6)
        ids = np.arange(g.n)
        groups = [ids[:80], ids[80:170], ids[170:]]
        forest = induced_subgraph_forest(g, groups)
        beta = 0.3
        rngs = [np.random.default_rng(100 + i) for i in range(3)]
        shifts = np.concatenate(
            [sample_shifts(grp.shape[0], beta, r) for grp, r in zip(groups, rngs)]
        )
        cf = est_cluster_forest(forest.graph, beta, forest.ptr, shifts, method=method)
        off = 0
        for grp in groups:
            sub, _ = induced_subgraph(g, grp)
            ref = est_cluster(
                sub,
                beta,
                shifts=shifts[off : off + grp.shape[0]],
                method=_cluster_method(sub, method),
            )
            assert np.array_equal(
                cf.center[off : off + grp.shape[0]] - off, ref.center
            )
            assert np.allclose(
                cf.dist_to_center[off : off + grp.shape[0]], ref.dist_to_center
            )
            off += grp.shape[0]

    def test_member_slices_match_flatnonzero(self):
        g = gnm_random_graph(150, 450, seed=17, connected=True)
        c = est_cluster(g, 0.4, seed=3)
        for lab in range(c.num_clusters):
            assert np.array_equal(
                c.members(lab), np.flatnonzero(c.labels == lab)
            )
        pieces = c.members_list()
        assert len(pieces) == c.num_clusters
        assert sum(p.shape[0] for p in pieces) == g.n

    def test_members_list_empty_clustering(self):
        # zero clusters must give zero pieces, not one phantom empty one
        c = est_cluster(from_edges(0, []), 0.5, seed=0)
        assert c.num_clusters == 0
        assert c.members_list() == []

    def test_member_views_are_read_only(self):
        # members() hands out views of the shared cached index: writes
        # must fail loudly instead of corrupting later members() calls
        g = gnm_random_graph(60, 180, seed=19, connected=True)
        c = est_cluster(g, 0.4, seed=3)
        m = c.members(0)
        with pytest.raises(ValueError):
            m += 1
