"""Equivalence and determinism tests for the bucket shortest-path engine."""

import math

import numpy as np
import pytest

from oracles import KERNELS, dijkstra_reference, engine_kernel
from repro import cli
from repro.clustering import est_cluster, est_cluster_forest
from repro.dynamic import UpdateBatch
from repro.errors import GraphFormatError, ParameterError
from repro.graph import (
    from_edges,
    gnm_random_graph,
    grid_graph,
    induced_subgraph,
    with_random_weights,
)
from repro.hopsets import (
    build_hopset,
    build_limited_hopset,
    build_weighted_hopset,
    exact_distance,
    hopset_distance,
)
from repro.paths import (
    bfs_with_start_times,
    dijkstra,
    dijkstra_scipy,
    hop_limited_distances,
    shortest_paths,
    shortest_paths_batch,
)
from repro.pram import PramTracker
from repro.serve import DistanceServer

INT_INF = np.iinfo(np.int64).max


def _random_weighted(n, m, seed, lo=1.0, hi=40.0, kind="loguniform"):
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    return with_random_weights(g, lo, hi, kind, seed=seed + 1000)


class TestSingleSource:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_matches_scipy(self, seed, kernel):
        g = _random_weighted(150, 600, seed)
        res = shortest_paths(g, 0)
        assert np.allclose(res.dist, dijkstra_scipy(g, 0))

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_matches_reference_labels(self, kernel):
        # random real weights: ties have measure zero, so parent/owner
        # must agree with the heapq oracle exactly
        g = _random_weighted(200, 800, seed=7)
        res = shortest_paths(g, 5)
        dist, parent, owner = dijkstra_reference(g, 5)
        assert np.allclose(res.dist, dist)
        assert np.array_equal(res.parent, parent)
        assert np.array_equal(res.owner, owner)

    def test_scalar_and_array_source_agree(self):
        g = _random_weighted(80, 240, seed=3)
        a = shortest_paths(g, 4)
        b = shortest_paths(g, np.asarray([4]))
        assert np.array_equal(a.dist, b.dist)

    def test_sssp_convenience(self):
        # a scalar source is the single-source search
        g = _random_weighted(60, 180, seed=4)
        assert np.allclose(shortest_paths(g, 0).dist, dijkstra_scipy(g, 0))

    def test_unreached_labels(self, disconnected):
        res = shortest_paths(disconnected, 0)
        assert np.isinf(res.dist[3])
        assert res.owner[3] == -1 and res.parent[3] == -1


class TestMultiSourceOffsets:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_race_matches_reference(self, seed, kernel):
        g = _random_weighted(120, 500, seed)
        rng = np.random.default_rng(seed)
        srcs = rng.choice(g.n, size=7, replace=False).astype(np.int64)
        offs = rng.uniform(0.0, 5.0, 7)
        res = shortest_paths(g, srcs, offsets=offs)
        dist, parent, owner = dijkstra_reference(g, srcs, offsets=offs)
        assert np.allclose(res.dist, dist)
        assert np.array_equal(res.owner, owner)
        assert np.array_equal(res.parent, parent)

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_all_source_race_argmin(self, kernel):
        # the EST-exact workload: every vertex races with a real offset
        g = _random_weighted(90, 360, seed=17)
        rng = np.random.default_rng(17)
        offs = rng.exponential(2.0, g.n)
        res = shortest_paths(g, np.arange(g.n), offsets=offs)
        from repro.paths.dijkstra import all_pairs_distances

        key = all_pairs_distances(g) + offs[:, None]
        assert np.allclose(res.dist, key.min(axis=0))
        assert np.allclose(key[res.owner, np.arange(g.n)], key.min(axis=0))

    def test_duplicate_sources_earlier_entry_wins(self):
        g = from_edges(3, [(0, 1), (1, 2)], weights=[1.0, 1.0])
        res = shortest_paths(
            g, np.array([1, 1]), offsets=np.array([0.5, 0.5])
        )
        # both entries name vertex 1 at the same offset; owner stays 1
        assert (res.owner[np.isfinite(res.dist)] == 1).all()
        assert np.allclose(res.dist, [1.5, 0.5, 1.5])


class TestDeterminism:
    def test_repeat_runs_identical(self):
        g = _random_weighted(100, 400, seed=23)
        offs = np.random.default_rng(23).uniform(0, 3, g.n)
        a = shortest_paths(g, np.arange(g.n), offsets=offs)
        b = shortest_paths(g, np.arange(g.n), offsets=offs)
        assert np.array_equal(a.dist, b.dist)
        assert np.array_equal(a.owner, b.owner)
        assert np.array_equal(a.parent, b.parent)

    def test_tie_break_prefers_earlier_source(self):
        # path 0-1-2-3-4: sources 0 and 4 meet at vertex 2 at distance 2
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        for kernel in KERNELS:
            with engine_kernel(kernel):
                res = shortest_paths(
                    g,
                    np.array([0, 4]),
                    offsets=np.array([0.0, 0.0]),
                )
            assert res.owner[2] == 0, kernel

    def test_tie_break_rank_beats_vertex_order(self):
        # two disjoint branches meet at 5 at distance 2; the rank-0
        # source (vertex 3) must win on every kernel even though the
        # competing branch settles lower vertex ids first
        g = from_edges(6, [(3, 4), (4, 5), (0, 1), (1, 5)])
        for kernel in KERNELS:
            with engine_kernel(kernel):
                res = shortest_paths(
                    g,
                    np.array([3, 0]),
                    offsets=np.array([0.0, 0.0]),
                )
            assert res.owner[5] == 3, kernel

    def test_tiny_delta_terminates(self):
        # float roundoff: (d // delta) * delta + delta == d when
        # d/delta ~ 1e16 — must degrade to a point bucket, not hang
        g = _random_weighted(60, 180, seed=29, lo=1000.0, hi=100000.0, kind="uniform")
        res = shortest_paths(g, 0, delta=1e-10)
        assert np.allclose(res.dist, dijkstra_scipy(g, 0))

    @pytest.mark.parametrize("seed", [31, 32])
    def test_backends_agree_on_random_weights(self, seed):
        g = _random_weighted(130, 520, seed)
        results = []
        for kernel in KERNELS:
            with engine_kernel(kernel):
                results.append(shortest_paths(g, 0))
        for r in results[1:]:
            assert np.allclose(results[0].dist, r.dist)
            assert np.array_equal(results[0].owner, r.owner)


class TestDialIntegerMode:
    def test_integer_inputs_give_int64_dial(self, small_int_weighted):
        w = small_int_weighted.weights.astype(np.int64)
        res = shortest_paths(
            small_int_weighted, 0, offsets=np.array([0]), weights=w
        )
        assert res.dist.dtype == np.int64
        assert res.delta == 1.0
        expect = dijkstra_scipy(small_int_weighted, 0)
        assert np.array_equal(
            np.where(res.dist == INT_INF, np.inf, res.dist.astype(float)), expect
        )
        # Dial: one relaxation round per bucket
        assert res.relax_rounds == res.buckets


class TestAccountingAndBackends:
    def test_tracker_work_and_rounds(self):
        g = _random_weighted(100, 400, seed=41)
        t = PramTracker(n=g.n, depth_per_round=1)
        res = shortest_paths(g, 0, tracker=t)
        assert t.work == res.arcs_relaxed
        assert t.rounds == res.relax_rounds
        assert t.depth == res.relax_rounds
        assert res.buckets <= res.relax_rounds
        assert res.arcs_relaxed >= 2 * g.m  # every arc relaxes at least once

    def test_custom_delta_changes_schedule(self):
        g = _random_weighted(100, 400, seed=43)
        fine = shortest_paths(g, 0, delta=float(g.min_weight))
        coarse = shortest_paths(g, 0, delta=float(g.max_weight) * g.n)
        assert np.allclose(fine.dist, coarse.dist)
        assert fine.buckets >= coarse.buckets
        assert coarse.buckets == 1

    def test_invalid_inputs_rejected(self):
        g = _random_weighted(20, 60, seed=44)
        with pytest.raises(ParameterError):
            shortest_paths(g, 0, delta=0.0)
        with pytest.raises(ParameterError):
            shortest_paths(g, 0, weights=np.ones(3))
        with pytest.raises(ParameterError):
            shortest_paths(g, np.array([0, 1]), offsets=np.array([0.0]))
        with pytest.raises(ParameterError):
            shortest_paths(g, 0, backend="cuda")

    def test_empty_and_edgeless(self, empty_graph):
        res = shortest_paths(empty_graph, 0)
        assert np.isfinite(res.dist[0]) and np.isinf(res.dist[1:]).all()
        res = shortest_paths(empty_graph, np.empty(0, np.int64))
        assert np.isinf(res.dist).all() and res.buckets == 0


class TestDijkstraFrontEnd:
    def test_dijkstra_wrapper_matches_oracle(self, small_weighted):
        dist, parent, owner = dijkstra(small_weighted, 0)
        assert np.allclose(dist, dijkstra_scipy(small_weighted, 0))
        dref, pref, oref = dijkstra_reference(small_weighted, 0)
        assert np.array_equal(parent, pref) and np.array_equal(owner, oref)

    def test_grid_unweighted(self):
        g = grid_graph(12, 12)
        dist, _, _ = dijkstra(g, 0)
        assert np.allclose(dist, dijkstra_scipy(g, 0))


def _on_reference_kernel(call):
    with engine_kernel("reference"):
        return call()


# every entry point that takes a vertex id, called with that id out of
# range; ``hs`` maps hopset kind ("unweighted", "weighted", "limited")
# to a hopset built on ``g``
_ID_ENTRY_POINTS = {
    "shortest_paths": lambda g, hs, v: shortest_paths(g, v),
    "shortest_paths_reference": lambda g, hs, v: _on_reference_kernel(
        lambda: shortest_paths(g, v)
    ),
    "shortest_paths_batch": lambda g, hs, v: shortest_paths_batch(g, [v]),
    "hopset_distance_source": lambda g, hs, v: hopset_distance(hs["unweighted"], v, 5),
    "hopset_distance_target": lambda g, hs, v: hopset_distance(hs["unweighted"], 0, v),
    "exact_distance": lambda g, hs, v: exact_distance(g, 0, v),
    "hop_limited_distances": lambda g, hs, v: hop_limited_distances(
        hs["unweighted"].union_csr(), [v], 4
    ),
    "weighted_query_source": lambda g, hs, v: hs["weighted"].query(v, 5),
    "weighted_query_target": lambda g, hs, v: hs["weighted"].query(0, v),
    "weighted_query_with_estimate_source": lambda g, hs, v: hs[
        "weighted"
    ].query_with_estimate(v, 5, 10.0),
    "weighted_query_with_estimate_target": lambda g, hs, v: hs[
        "weighted"
    ].query_with_estimate(0, v, 10.0),
    "weighted_query_source_no_scales": lambda g, hs, v: build_weighted_hopset(
        from_edges(g.n, np.empty((0, 2), dtype=np.int64)), seed=1
    ).query(v, 5),
    "limited_query_source": lambda g, hs, v: hs["limited"].query(v, 5),
    "limited_query_target": lambda g, hs, v: hs["limited"].query(0, v),
}


class TestVertexIdRange:
    @pytest.fixture(scope="class")
    def built(self):
        g = _random_weighted(100, 400, seed=53)
        return g, {
            "unweighted": build_hopset(g, seed=1),
            "weighted": build_weighted_hopset(g, seed=1),
            "limited": build_limited_hopset(g, seed=1),
        }

    @pytest.mark.parametrize("entry", sorted(_ID_ENTRY_POINTS))
    @pytest.mark.parametrize("where", ["minus_one", "n"])
    def test_out_of_range_id_names_itself(self, built, entry, where):
        g, hs = built
        v = -1 if where == "minus_one" else g.n
        # never an answer for vertex n - 1, never a numpy error
        with pytest.raises(ParameterError, match=rf"{v} out of range \[0, {g.n}\)"):
            _ID_ENTRY_POINTS[entry](g, hs, v)

    @pytest.mark.parametrize("entry", sorted(_ID_ENTRY_POINTS))
    def test_fractional_id_names_itself(self, built, entry):
        g, hs = built
        # never truncated to vertex 1
        with pytest.raises(ParameterError, match=r"1\.7 is not an integer vertex id"):
            _ID_ENTRY_POINTS[entry](g, hs, 1.7)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sssp", "--n", "100", "--m", "400", "--source", "1000"],
            ["hopset", "--n", "100", "--m", "400", "--seed", "1", "--query", "0", "-1"],
        ],
        ids=["sssp_source_1000", "hopset_query_minus_one"],
    )
    def test_cli_out_of_range_id_is_a_message(self, argv, capsys):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ")
        assert "out of range [0, 100)" in captured.err
        assert "query" not in captured.out


def _est_on_grid(shift, method):
    return lambda g: est_cluster(
        grid_graph(5, 5), 0.5, shifts=np.full(25, shift), method=method
    )


# inputs that used to reach a kernel unchecked, each with the parameter
# its error must name: a NaN or infinite delta failed on an index, NaN
# offsets left every vertex unreached, negative override weights never
# finished, and NaN or infinite EST shifts left every vertex without a
# center (exact) or alone in its cluster (round)
_BAD_INPUTS = {
    "delta_nan": ("delta", lambda g: shortest_paths(g, 0, delta=math.nan)),
    "delta_inf": ("delta", lambda g: shortest_paths(g, 0, delta=math.inf)),
    "offsets_nan": ("offsets", lambda g: shortest_paths(g, [0], offsets=[math.nan])),
    "offsets_inf": ("offsets", lambda g: shortest_paths(g, [0], offsets=[math.inf])),
    "weights_negative": (
        "weights", lambda g: shortest_paths(g, 0, weights=-np.ones(g.num_arcs))
    ),
    "weights_nan": (
        "weights", lambda g: shortest_paths(g, 0, weights=np.full(g.num_arcs, math.nan))
    ),
    "batch_weights_negative": (
        "weights", lambda g: shortest_paths_batch(g, [0], weights=-np.ones(g.num_arcs))
    ),
    # wrong shapes used to fail inside numpy (IndexError, broadcast error)
    "offsets_scalar": ("offsets", lambda g: shortest_paths(g, 0, offsets=5)),
    "offsets_column": ("offsets", lambda g: shortest_paths(g, [0, 1], offsets=[[1], [2]])),
    "weights_column": (
        "weights", lambda g: shortest_paths(g, 0, weights=np.ones((g.num_arcs, 1)))
    ),
    "est_exact_shifts_nan": ("shifts", _est_on_grid(math.nan, "exact")),
    "est_exact_shifts_inf": ("shifts", _est_on_grid(math.inf, "exact")),
    "est_round_shifts_nan": ("shifts", _est_on_grid(math.nan, "round")),
    "est_forest_shifts_inf": (
        "shifts",
        lambda g: est_cluster_forest(
            grid_graph(5, 5), 0.5, np.array([0, 25]), np.full(25, math.inf)
        ),
    ),
}


class TestNonFiniteInputs:
    @pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
    def test_rejected_by_name(self, case):
        g = _random_weighted(50, 200, seed=57)
        name, call = _BAD_INPUTS[case]
        with pytest.raises(ParameterError, match=name):
            call(g)

    def test_cli_nan_delta_is_a_message(self, capsys):
        rc = cli.main(["sssp", "--n", "100", "--m", "400", "--delta", "nan"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: delta must be positive and finite")
        assert "Traceback" not in captured.err


def _path4():
    """The path 0-1-2-3 with weights 1, 2, 3."""
    return from_edges(4, np.array([[0, 1], [1, 2], [2, 3]]), np.array([1.0, 2.0, 3.0]))


# entry points that truncated a fractional id (or a 2-D id array) to
# another vertex's answer, each with the error type it raises for bad ids
_NON_INTEGRAL_CALLS = {
    "shortest_paths_2d": (
        ParameterError, "shape", lambda g, srv: shortest_paths(g, np.array([[0, 1]]))
    ),
    "shortest_paths_batch_flat": (
        ParameterError, "0.5", lambda g, srv: shortest_paths_batch(g, [0.5, 2.7])
    ),
    "shortest_paths_batch_run": (
        ParameterError, "2.5", lambda g, srv: shortest_paths_batch(g, [[0, 1], [2.5]])
    ),
    "bfs_with_start_times": (
        ParameterError, "0.5", lambda g, srv: bfs_with_start_times(g, [0], [0.5])
    ),
    "server_query_source": (ParameterError, "1.7", lambda g, srv: srv.query(1.7, 3)),
    "server_query_target": (ParameterError, "3.2", lambda g, srv: srv.query(1, 3.2)),
    "server_query_batch": (
        ParameterError, r"1\.7|3\.2", lambda g, srv: srv.query_batch([(1.7, 3.2)])
    ),
    "server_distances": (ParameterError, "0.9", lambda g, srv: srv.distances([0.9])),
    "server_distance_row": (ParameterError, "2.5", lambda g, srv: srv.distance_row(2.5)),
    "update_batch_from_tuples": (
        ParameterError, "0.4", lambda g, srv: UpdateBatch.from_tuples([(0.4, 2.6, 1.0)], [])
    ),
    "update_batch_delete": (
        ParameterError, "1.5", lambda g, srv: UpdateBatch.from_tuples([], [(1.5, 3)])
    ),
    "induced_subgraph": (
        GraphFormatError, "0.5", lambda g, srv: induced_subgraph(g, [0.5, 2.2])
    ),
    "induced_subgraph_2d": (
        GraphFormatError, "1-D", lambda g, srv: induced_subgraph(g, np.array([[0, 1]]))
    ),
}


class TestNonIntegralIds:
    @pytest.fixture(scope="class")
    def path(self):
        g = _path4()
        return g, DistanceServer(build_hopset(g, seed=1))

    @pytest.mark.parametrize("entry", sorted(_NON_INTEGRAL_CALLS))
    def test_refused_by_value(self, path, entry):
        error, match, call = _NON_INTEGRAL_CALLS[entry]
        with pytest.raises(error, match=match):
            call(*path)

    def test_negative_hop_bound_is_refused(self):
        g = _path4()
        with pytest.raises(ParameterError, match="h must be a non-negative"):
            hop_limited_distances((g.indptr, g.indices, g.weights), [0], -1)

    def test_integral_floats_still_answer(self, path):
        g, srv = path
        assert np.array_equal(shortest_paths(g, 2.0).dist, shortest_paths(g, 2).dist)
        assert np.array_equal(
            shortest_paths_batch(g, np.array([0.0, 3.0])).dist,
            shortest_paths_batch(g, [0, 3]).dist,
        )
        assert srv.query(1.0, 3.0) == srv.query(1, 3) == 5.0
        assert srv.query_batch([(0.0, 2.0)]).tolist() == [3.0]
        b = UpdateBatch.from_tuples([(0.0, 2.0, 1.0)], [(1.0, 2.0)])
        assert b.insert_u.tolist() == [0] and b.delete_v.tolist() == [2]
        sub, vmap = induced_subgraph(g, np.array([1.0, 2.0]))
        assert vmap.tolist() == [1, 2] and sub.m == 1
