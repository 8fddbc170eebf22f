"""Unit tests for hop-limited Bellman-Ford.

``TestHopLimited``'s semantic tests run the product front door,
:func:`repro.paths.hop_limited_distances`, on CSR triples.  The dense
reference it is pinned against lives in ``tests/oracles``; its arc
container (``TestArcSet``) and its ledger (the ``test_work_*`` and
``test_inf_source_mask_*`` tests) are checked here too.
"""

import numpy as np
import pytest

from oracles import ArcSet, arcs_from_graph, combine_arcs, dense_hop_distances
from repro.errors import ParameterError
from repro.graph import from_edges, path_graph
from repro.hopsets.result import HopsetResult
from repro.paths import hop_limited_distances
from repro.paths.dijkstra import dijkstra_scipy
from repro.pram import PramTracker


def _csr(g):
    return g.indptr, g.indices, g.weights


class TestArcSet:
    def test_arcs_from_graph_doubles(self, triangle):
        arcs = arcs_from_graph(triangle)
        assert arcs.size == 6
        assert arcs.n == 3

    def test_combine_adds_both_directions(self, triangle):
        arcs = arcs_from_graph(triangle)
        aug = combine_arcs(arcs, np.array([0]), np.array([2]), np.array([0.5]))
        assert aug.size == 8

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            ArcSet(n=2, src=np.array([0]), dst=np.array([1, 0]), w=np.array([1.0]))


class TestHopLimited:
    def test_h_hop_semantics_on_path(self):
        g = path_graph(8)
        dist, hops, _ = hop_limited_distances(_csr(g), np.array([0]), h=3)
        assert dist[3] == 3.0
        assert np.isinf(dist[4])  # needs 4 hops

    @pytest.mark.parametrize("h", [2.5, float("nan"), float("inf")])
    def test_non_integral_hop_bound_refused(self, h):
        # a fractional bound used to be rounded up: h=2.5 on the path
        # 0-1-2-3-4 ran three rounds and reached vertex 3
        with pytest.raises(ParameterError, match="h must be"):
            hop_limited_distances(_csr(path_graph(5)), np.array([0]), h=h)

    @pytest.mark.parametrize("h", [2, 2.0, np.int64(2)])
    def test_integral_hop_bound_unchanged(self, h):
        dist, hops, rounds = hop_limited_distances(_csr(path_graph(5)), np.array([0]), h=h)
        assert dist.tolist() == [0.0, 1.0, 2.0, np.inf, np.inf]
        assert hops.tolist() == [0, 1, 2, 0, 0]
        assert rounds == 2

    def test_full_budget_matches_dijkstra(self, small_weighted):
        dist, _, _ = hop_limited_distances(
            _csr(small_weighted), np.array([0]), h=small_weighted.n
        )
        assert np.allclose(dist, dijkstra_scipy(small_weighted, 0))

    def test_monotone_in_h(self, small_weighted):
        prev = np.full(small_weighted.n, np.inf)
        for h in (1, 2, 4, 8, 16):
            dist, _, _ = hop_limited_distances(_csr(small_weighted), np.array([0]), h=h)
            assert (dist <= prev + 1e-12).all()
            prev = dist

    def test_hops_report_stabilization_round(self):
        g = path_graph(6)
        dist, hops, _ = hop_limited_distances(_csr(g), np.array([0]), h=10)
        assert list(hops[:6]) == [0, 1, 2, 3, 4, 5]

    def test_early_stop_rounds(self):
        g = path_graph(4)
        t = PramTracker(n=4, depth_per_round=1)
        _, _, rounds = hop_limited_distances(_csr(g), np.array([0]), h=100, tracker=t)
        assert rounds <= 5  # 3 productive + 1 no-change round
        assert t.rounds == rounds
        # each round is charged the out-arcs of the vertices the round
        # before improved: deg(0), deg(1), deg(2), deg(3)
        assert t.work == 1 + 2 + 2 + 1

    def test_synchronous_vs_shortcut(self):
        # a direct heavy edge vs a lighter 2-hop path: h=1 must take the
        # heavy edge, h=2 the light path
        g = from_edges(3, [(0, 2), (0, 1), (1, 2)], weights=[5.0, 1.0, 1.0])
        d1, _, _ = hop_limited_distances(_csr(g), np.array([0]), h=1)
        d2, _, _ = hop_limited_distances(_csr(g), np.array([0]), h=2)
        assert d1[2] == 5.0
        assert d2[2] == 2.0

    def test_multi_source(self, small_weighted):
        dist, _, _ = hop_limited_distances(
            _csr(small_weighted), np.array([0, 1]), h=small_weighted.n
        )
        d0 = dijkstra_scipy(small_weighted, 0)
        d1 = dijkstra_scipy(small_weighted, 1)
        assert np.allclose(dist, np.minimum(d0, d1))

    def test_work_charged_per_round(self):
        # the dense oracle charges each round the arcs it actually
        # relaxed: arcs whose source is still at inf are masked out of
        # gather and ledger.  Path from vertex 0: round 1 sees only 0's
        # arc (1), round 2 the arcs of {0, 1} (1 + 2 = 3).  Both rounds
        # improve labels, so early stop does not cut the budget short.
        g = path_graph(5)
        arcs = arcs_from_graph(g)
        t = PramTracker(n=5, depth_per_round=1)
        _, _, rounds = dense_hop_distances(arcs, np.array([0]), h=2, tracker=t)
        assert rounds == 2
        assert t.work == 1 + 3

    def test_work_full_charge_once_all_reached(self):
        # once every vertex is labeled the oracle skips the mask and a
        # round charges the full arc count, the pre-mask dense semantics.
        # Triangle 0-1 (1), 0-2 (10), 1-2 (1) from 0: round 1 relaxes
        # 0's two arcs and reaches everything; round 2 (full charge)
        # improves d(2) from 10 to 2; round 3 (full charge) changes
        # nothing and stops the loop.
        g = from_edges(3, [(0, 1), (0, 2), (1, 2)], weights=[1.0, 10.0, 1.0])
        arcs = arcs_from_graph(g)
        t = PramTracker(n=3, depth_per_round=1)
        dist, _, rounds = dense_hop_distances(arcs, np.array([0]), h=10, tracker=t)
        assert dist[2] == 2.0
        assert rounds == 3
        assert t.work == 2 + 2 * arcs.size

    def test_inf_source_mask_matches_dense_labels(self, small_weighted):
        # the oracle's mask is a work optimization only: labels and hops
        # equal the literal dense recurrence, where no arc is ever masked
        arcs = arcs_from_graph(small_weighted)
        for h in (1, 2, 4, small_weighted.n):
            dist, hops, _ = dense_hop_distances(arcs, np.array([0]), h=h)
            ref = np.full(small_weighted.n, np.inf)
            ref[0] = 0.0
            for _ in range(h):  # literal dense reference recurrence
                cand = ref[arcs.src] + arcs.w
                new = ref.copy()
                np.minimum.at(new, arcs.dst, cand)
                ref = new
            assert np.allclose(dist, ref, equal_nan=True)

    def test_extra_arcs_shortcut(self):
        g = path_graph(10)
        csr = HopsetResult(
            graph=g, eu=np.array([0]), ev=np.array([9]), ew=np.array([9.0]),
            kind=np.array([1]),
        ).union_csr()
        dist, hops, _ = hop_limited_distances(csr, np.array([0]), h=1)
        assert dist[9] == 9.0 and hops[9] == 1
