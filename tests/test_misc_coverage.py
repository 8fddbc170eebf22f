"""Behavior-level tests for corners not covered elsewhere."""

import numpy as np
import pytest

from repro.exp import Table
from repro.graph import from_edges, gnm_random_graph
from repro.pram import PramTracker
from repro.spanners.result import SpannerResult


class TestTrackerComposition:
    def test_phase_merge_across_parallel_children(self):
        t = PramTracker(n=10, depth_per_round=1)
        kids = []
        for i in range(2):
            c = t.fork()
            with c.phase("inner"):
                c.charge(work=5 * (i + 1), depth=i + 1)
            kids.append(c)
        t.parallel_children(kids)
        assert t.phase_work["inner"] == 15
        assert t.phase_depth["inner"] == 2  # max across children

    def test_phase_merge_sequential_children(self):
        t = PramTracker(n=10, depth_per_round=1)
        kids = []
        for i in range(2):
            c = t.fork()
            with c.phase("inner"):
                c.charge(work=3, depth=2)
            kids.append(c)
        t.sequential_children(kids)
        assert t.phase_depth["inner"] == 4  # sum

    def test_disabled_children_merge_noop(self):
        from repro.pram import null_tracker

        t = null_tracker()
        c = t.fork()
        c.charge(work=100, depth=5)
        t.parallel_children([c])
        assert t.work == 0


class TestHarnessDetails:
    def test_table_missing_cell_renders_blank(self):
        t = Table(title="T", columns=["a", "b"])
        t.add(a=1)
        text = t.render()
        assert "1" in text


class TestSpannerResultDetails:
    def test_total_weight(self, small_weighted):
        sp = SpannerResult(
            graph=small_weighted,
            edge_ids=np.arange(5),
            stretch_bound=1.0,
        )
        assert sp.total_weight() == pytest.approx(small_weighted.edge_w[:5].sum())

    def test_empty_spanner_subgraph(self, small_gnm):
        sp = SpannerResult(
            graph=small_gnm, edge_ids=np.empty(0, np.int64), stretch_bound=1.0
        )
        h = sp.subgraph()
        assert h.n == small_gnm.n and h.m == 0
        assert sp.density == 0.0


class TestDistributedEngineDetails:
    def test_broadcast_equals_individual_sends(self, triangle):
        from oracles import NodeProgram, SyncNetwork

        class B(NodeProgram):
            def init(self, node, net):
                if node == 0:
                    net.broadcast(0, (7,))

            def on_round(self, node, inbox, net):
                net.state[node].setdefault("got", []).extend(p for _, p in inbox)

        class S(NodeProgram):
            def init(self, node, net):
                if node == 0:
                    for u in net.neighbors(0):
                        net.send(0, int(u), (7,))

            def on_round(self, node, inbox, net):
                net.state[node].setdefault("got", []).extend(p for _, p in inbox)

        n1, n2 = SyncNetwork(triangle), SyncNetwork(triangle)
        n1.run(B(), max_rounds=2)
        n2.run(S(), max_rounds=2)
        for v in (1, 2):
            assert n1.state[v].get("got") == n2.state[v].get("got")

    def test_state_survives_between_programs(self, triangle):
        from oracles import NodeProgram, SyncNetwork

        class SetX(NodeProgram):
            def init(self, node, net):
                net.state[node]["x"] = node * 10

            def on_round(self, node, inbox, net):
                pass

        net = SyncNetwork(triangle)
        net.run(SetX(), max_rounds=1)
        assert net.state[2]["x"] == 20


class TestGeneratorsDetails:
    def test_gnm_without_connected_can_disconnect(self):
        # sparse m: overwhelmingly disconnected for some seed
        from repro.graph import is_connected

        hits = sum(
            not is_connected(gnm_random_graph(60, 40, seed=s)) for s in range(5)
        )
        assert hits >= 1

    def test_weight_bucket_boundaries(self):
        from repro.spanners.weighted import weight_buckets

        g = from_edges(4, [(0, 1), (1, 2), (2, 3)], weights=[1.0, 2.0, 4.0])
        b = weight_buckets(g)
        assert list(b) == [0, 1, 2]

    def test_loguniform_spans_orders(self, small_gnm):
        from repro.graph import with_random_weights

        g = with_random_weights(small_gnm, 1.0, 10000.0, "loguniform", seed=1)
        assert g.weight_ratio > 100  # actually spreads across the range
