"""Unit tests for the synchronous network simulator and Section 2.2's
distributed spanner (``tests/oracles``), the oracle of
``unweighted_spanner``."""

import numpy as np
import pytest

from oracles import NodeProgram, SyncNetwork, distributed_unweighted_spanner
from repro.clustering import est_cluster
from repro.clustering.shifts import sample_shifts
from repro.errors import ParameterError
from repro.graph import gnm_random_graph, grid_graph, path_graph
from repro.spanners import unweighted_spanner, verify_spanner
from repro.spanners.unweighted import spanner_beta


class _Flood(NodeProgram):
    """Test program: node 0 floods a token; others record the round heard."""

    def init(self, node, net):
        net.state[node]["heard"] = -1
        if node == 0:
            net.state[node]["heard"] = 0
            net.broadcast(0, (1,))

    def on_round(self, node, inbox, net):
        st = net.state[node]
        if st["heard"] < 0 and inbox:
            st["heard"] = net.rounds + 1
            net.broadcast(node, (1,))

    def is_done(self, node, net):
        return net.state[node]["heard"] >= 0


class TestEngine:
    def test_flood_rounds_equal_bfs_depth(self):
        g = path_graph(6)
        net = SyncNetwork(g)
        net.run(_Flood())
        heard = [net.state[v]["heard"] for v in range(6)]
        assert heard == [0, 1, 2, 3, 4, 5]

    def test_flood_on_grid(self):
        g = grid_graph(5, 5)
        net = SyncNetwork(g)
        net.run(_Flood())
        # farthest corner hears at round = manhattan distance
        assert net.state[24]["heard"] == 8

    def test_message_counting(self):
        g = path_graph(4)
        net = SyncNetwork(g)
        net.run(_Flood())
        # every node broadcasts once: total messages = sum of degrees
        assert net.total_messages == int(np.asarray(g.degree()).sum())

    def test_send_to_non_neighbor_rejected(self):
        g = path_graph(4)
        net = SyncNetwork(g)
        with pytest.raises(ParameterError):
            net.send(0, 3, (1,))

    def test_congest_cap_enforced(self):
        g = path_graph(3)
        net = SyncNetwork(g, congest_words=2)
        with pytest.raises(ParameterError):
            net.send(0, 1, (1, 2, 3))

    def test_congest_cap_disabled(self):
        g = path_graph(3)
        net = SyncNetwork(g, congest_words=None)
        net.send(0, 1, tuple(range(100)))  # allowed

    def test_max_rounds_terminates(self):
        class Chatter(NodeProgram):
            def on_round(self, node, inbox, net):
                net.broadcast(node, (1,))

            def is_done(self, node, net):
                return False

        g = path_graph(3)
        net = SyncNetwork(g)
        net.run(Chatter(), max_rounds=5)
        assert net.rounds == 5

    def test_history_recorded(self):
        g = path_graph(5)
        net = SyncNetwork(g)
        hist = net.run(_Flood())
        assert len(hist) == net.rounds
        assert all(h.messages >= 0 for h in hist)


class TestDistributedSpanner:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_centralized_under_coupling(self, seed):
        g = gnm_random_graph(150, 600, seed=seed, connected=True)
        k = 3
        shifts = sample_shifts(g.n, spanner_beta(g.n, k), seed=seed + 100)
        sp_d, net = distributed_unweighted_spanner(g, k, shifts=shifts)
        c = est_cluster(g, spanner_beta(g.n, k), shifts=shifts, method="round")
        sp_c = unweighted_spanner(g, k, clustering=c)
        assert np.array_equal(sp_d.edge_ids, sp_c.edge_ids)
        # on a connected graph the port runs the race's rounds plus the
        # last announce round and the boundary round, and every node
        # broadcasts once per phase
        assert net.rounds == c.rounds + 2
        assert net.total_messages == 4 * g.m

    def test_stretch_certified(self, small_gnm):
        sp, _ = distributed_unweighted_spanner(small_gnm, 3, seed=5)
        verify_spanner(small_gnm, sp)

    def test_round_count_order_k_log_n(self, small_gnm):
        g = small_gnm
        k = 3
        sp, net = distributed_unweighted_spanner(g, k, seed=7)
        # race rounds <= max start + radius + O(1); envelope 4k log n + 5
        bound = 4 * 2 * k * np.log(g.n) / np.log(g.n) * np.log(g.n) + 10
        assert net.rounds <= bound

    def test_rejects_weighted(self, small_weighted):
        with pytest.raises(ParameterError):
            distributed_unweighted_spanner(small_weighted, 3, seed=1)

    def test_meta_accounting(self, small_gnm):
        sp, net = distributed_unweighted_spanner(small_gnm, 2, seed=9)
        assert sp.meta["rounds"] == net.rounds
        assert sp.meta["messages"] == net.total_messages
        assert net.total_messages > 0

    def test_spans_connected_graph(self, small_grid):
        from repro.graph import is_connected

        sp, _ = distributed_unweighted_spanner(small_grid, 2, seed=11)
        assert is_connected(sp.subgraph())
