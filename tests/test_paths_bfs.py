"""Unit tests for level-synchronous BFS (including start-time races)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import bfs_with_start_times_reference, edge_id_lookup
from repro.errors import ParameterError
from repro.graph import gnm_random_graph, grid_graph, path_graph
from repro.paths import bfs
from repro.paths.bfs import INF, bfs_with_start_times
from repro.paths.dijkstra import dijkstra_scipy
from repro.pram import PramTracker
from repro.spanners.low_stretch_tree import bfs_tree


def _multi_source(g, sources):
    """``(dist, parent, owner)`` of a BFS from every source at round 0."""
    sources = np.asarray(sources)
    return bfs_with_start_times(g, np.zeros(sources.shape[0], dtype=np.int64), sources)[1:4]


class TestSingleSource:
    def test_path_graph_distances(self):
        g = path_graph(6)
        dist, parent = bfs(g, 0)
        assert list(dist) == [0, 1, 2, 3, 4, 5]
        assert parent[0] == -1
        assert all(parent[i] == i - 1 for i in range(1, 6))

    def test_matches_scipy_on_random(self):
        for seed in range(3):
            g = gnm_random_graph(100, 300, seed=seed, connected=True)
            dist, _ = bfs(g, 0)
            assert np.array_equal(dist.astype(float), dijkstra_scipy(g, 0))

    def test_unreachable_inf(self, disconnected):
        dist, parent, owner = _multi_source(disconnected, [0])
        assert dist[3] == INF
        assert owner[3] == -1
        assert parent[6] == -1

    def test_depth_equals_eccentricity(self):
        g = grid_graph(5, 7)
        t = PramTracker(n=g.n, depth_per_round=1)
        bfs(g, 0, tracker=t)
        ecc = 4 + 6  # corner eccentricity
        # the final frontier still performs one (empty) expansion round
        assert t.rounds == ecc + 1

    def test_work_linear_in_arcs(self):
        g = grid_graph(10, 10)
        t = PramTracker(n=g.n)
        bfs(g, 0, tracker=t)
        assert t.work <= 2 * g.num_arcs  # every arc scanned O(1) times


class TestMultiSource:
    def test_ownership_partitions(self, small_grid):
        sources = np.array([0, 63])
        dist, parent, owner = _multi_source(small_grid, sources)
        assert set(np.unique(owner)) == {0, 63}
        assert owner[0] == 0 and owner[63] == 63

    def test_nearest_source_wins(self):
        g = path_graph(10)
        dist, _, owner = _multi_source(g, [0, 9])
        assert owner[1] == 0
        assert owner[8] == 9
        assert dist[4] == 4

    def test_tie_break_deterministic(self):
        g = path_graph(5)
        # vertex 2 equidistant from both sources; source listed first wins
        _, _, owner = _multi_source(g, [0, 4])
        assert owner[2] == 0
        _, _, owner2 = _multi_source(g, [4, 0])
        assert owner2[2] == 4


class TestStartTimeRace:
    def test_delayed_source_loses_near_region(self):
        g = path_graph(9)
        arrival, dist, parent, owner, _ = bfs_with_start_times(
            g,
            start_time=np.array([0, 4]),
            source_ids=np.array([0, 8]),
        )
        # source 8 wakes at round 4; by then source 0 owns vertices 0..4
        assert owner[4] == 0
        assert owner[7] == 8

    def test_arrival_equals_start_plus_dist(self):
        g = grid_graph(6, 6)
        starts = np.array([2, 0, 5])
        srcs = np.array([0, 17, 35])
        arrival, dist, parent, owner, _ = bfs_with_start_times(g, starts, srcs)
        table = {0: 2, 17: 0, 35: 5}
        for v in range(g.n):
            assert arrival[v] == dist[v] + table[int(owner[v])]

    def test_priority_tiebreak(self):
        g = path_graph(3)
        # both sources reach vertex 1 at round 1; lower priority wins
        _, _, _, owner, _ = bfs_with_start_times(
            g,
            start_time=np.array([0, 0]),
            source_ids=np.array([0, 2]),
            priority=np.array([5.0, 1.0]),
        )
        assert owner[1] == 2

    def test_every_vertex_claimed_when_all_sources(self, small_gnm):
        g = small_gnm
        n = g.n
        arrival, dist, parent, owner, _ = bfs_with_start_times(
            g, np.zeros(n, dtype=np.int64), np.arange(n)
        )
        assert (owner == np.arange(n)).all()
        assert (dist == 0).all()

    def test_parent_edge_is_the_claiming_arc(self, small_gnm):
        g = small_gnm
        starts = np.random.default_rng(3).integers(0, 4, g.n)
        _, _, parent, _, parent_edge = bfs_with_start_times(g, starts, np.arange(g.n))
        child = np.flatnonzero(parent >= 0)
        assert child.shape[0] > 0
        assert np.array_equal(
            parent_edge[child], edge_id_lookup(g, child, parent[child])
        )
        assert (parent_edge[parent < 0] == -1).all()

    def test_parent_chain_reaches_owner(self, small_grid):
        g = small_grid
        starts = np.array([0, 3])
        srcs = np.array([0, 60])
        _, _, parent, owner, _ = bfs_with_start_times(g, starts, srcs)
        from repro.paths.trees import extract_path

        for v in (5, 30, 63):
            path = extract_path(parent, v)
            assert path[0] == owner[v]


class TestMatchesLexsortReference:
    """The counting-sort wake order against the lexsort race it replaced
    (``oracles.bfs_with_start_times_reference``): all five arrays, their
    dtypes and the tracker's ledger are equal."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_equal_to_reference(self, data):
        n = data.draw(st.integers(1, 30), label="n")
        m = data.draw(st.integers(0, min(3 * n, n * (n - 1) // 2)), label="m")
        g = gnm_random_graph(n, m, seed=data.draw(st.integers(0, 2**16), label="graph"))
        if data.draw(st.booleans(), label="duplicate sources"):
            ids = st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)
            sources = np.asarray(data.draw(ids, label="sources"), dtype=np.int64)
        else:
            sources = np.asarray(
                data.draw(st.permutations(range(n)), label="sources"), dtype=np.int64
            )[: data.draw(st.integers(1, n), label="k")]
        k = sources.shape[0]
        # few start rounds so starts tie; round 0 also wakes negative ones
        lo = data.draw(st.sampled_from([0, -2]), label="lowest start")
        rounds = st.integers(lo, data.draw(st.integers(lo, 4), label="latest start"))
        starts = np.asarray(
            data.draw(st.lists(rounds, min_size=k, max_size=k), label="starts"),
            dtype=np.int64,
        )
        kind = data.draw(st.sampled_from(["default", "tied", "distinct"]), label="priority")
        if kind == "default":
            priority = None
        elif kind == "tied":
            values = st.sampled_from([0.0, 0.5, 1.0])
            priority = np.asarray(data.draw(st.lists(values, min_size=k, max_size=k)))
        else:
            # an EST race's priority: the real start behind each round
            priority = starts + np.linspace(0.0, 0.9, k)[
                np.asarray(data.draw(st.permutations(range(k)), label="fractions"))
            ]
        t, ref_t = PramTracker(n=n), PramTracker(n=n)
        got = bfs_with_start_times(g, starts, sources, priority, tracker=t)
        want = bfs_with_start_times_reference(g, starts, sources, priority, tracker=ref_t)
        for name, a, b in zip(("arrival", "dist", "parent", "owner", "parent_edge"), got, want):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        assert (t.work, t.depth, t.rounds) == (ref_t.work, ref_t.depth, ref_t.rounds)

    @pytest.mark.parametrize("priority", ["real", "equal"])
    def test_equal_to_reference_on_an_est_race(self, priority):
        # every vertex a source once, above the radix sort's row
        # threshold; under equal priorities frontier position decides
        # every claim, so the wake order must keep equal starts in
        # input order
        g = gnm_random_graph(3000, 9000, seed=12)
        real = np.random.default_rng(13).exponential(4.0, g.n)
        starts = np.floor(real).astype(np.int64)
        prio = real if priority == "real" else np.zeros(g.n)
        got = bfs_with_start_times(g, starts, np.arange(g.n), prio)
        want = bfs_with_start_times_reference(g, starts, np.arange(g.n), prio)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestBadSources:
    """Out-of-range sources and mismatched per-source arrays fail by name
    on the path 0-1-2-3 instead of wrapping (-2 read as vertex 2) or
    failing inside numpy; fractional or non-finite start times fail on
    the path 0-1-2-3-4 instead of being truncated."""

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda g: _multi_source(g, [0, -2]), "source -2 out of range"),
            (lambda g: bfs(g, -1), "source -1 out of range"),
            (lambda g: bfs(g, 4), "source 4 out of range"),
            (lambda g: bfs_tree(g, root=7), "source 7 out of range"),
            (lambda g: bfs_with_start_times(g, [0], [5]), "source 5 out of range"),
            (lambda g: bfs_with_start_times(g, [0, 1], [0]), "start_time"),
            (lambda g: bfs_with_start_times(g, [0], [0], priority=[0.0, 1.0]), "priority"),
        ],
        ids=["multi_negative", "bfs_negative", "bfs_n", "bfs_tree_root",
             "start_times_source", "start_time_length", "priority_length"],
    )
    def test_rejected_by_name(self, call, match):
        with pytest.raises(ParameterError, match=match):
            call(path_graph(4))

    @pytest.mark.parametrize(
        "starts", [[1.9, 0.0], [np.nan, 0.0], [np.inf, 0.0], [0.0, -0.5]]
    )
    def test_fractional_start_times_refused(self, starts):
        # a cast used to truncate 1.9 to 1: source 0 woke a round early
        with pytest.raises(ParameterError, match="start_time"):
            bfs_with_start_times(path_graph(5), np.array(starts), np.array([0, 4]))

    def test_integral_float_start_times_accepted(self):
        g = path_graph(5)
        got = bfs_with_start_times(g, np.array([1.0, 0.0]), np.array([0, 4]))
        want = bfs_with_start_times(g, np.array([1, 0]), np.array([0, 4]))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert got[3].tolist() == [0, 0, 4, 4, 4]
