"""Equivalence and determinism tests for the bucket shortest-path engine."""

import numpy as np
import pytest

from repro import cli
from repro.errors import ParameterError
from repro.graph import from_edges, gnm_random_graph, grid_graph, with_random_weights
from repro.hopsets import (
    build_hopset,
    build_limited_hopset,
    build_weighted_hopset,
    exact_distance,
    hopset_distance,
)
from repro.kernels import available_backends, resolve_backend
from repro.paths import (
    dijkstra,
    dijkstra_reference,
    dijkstra_scipy,
    hop_limited_distances,
    set_default_backend,
    shortest_paths,
    shortest_paths_batch,
    sssp,
)
from repro.pram import PramTracker

INT_INF = np.iinfo(np.int64).max


def _random_weighted(n, m, seed, lo=1.0, hi=40.0, kind="loguniform"):
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    return with_random_weights(g, lo, hi, kind, seed=seed + 1000)


BACKENDS = available_backends()


class TestSingleSource:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_scipy(self, seed, backend):
        g = _random_weighted(150, 600, seed)
        res = shortest_paths(g, 0, backend=backend)
        assert np.allclose(res.dist, dijkstra_scipy(g, 0))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_reference_labels(self, backend):
        # random real weights: ties have measure zero, so parent/owner
        # must agree with the heapq oracle exactly
        g = _random_weighted(200, 800, seed=7)
        res = shortest_paths(g, 5, backend=backend)
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
        g = _random_weighted(60, 180, seed=4)
        assert np.allclose(sssp(g, 0).dist, dijkstra_scipy(g, 0))

    def test_unreached_labels(self, disconnected):
        res = shortest_paths(disconnected, 0)
        assert np.isinf(res.dist[3])
        assert res.owner[3] == -1 and res.parent[3] == -1


class TestMultiSourceOffsets:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_race_matches_reference(self, seed, backend):
        g = _random_weighted(120, 500, seed)
        rng = np.random.default_rng(seed)
        srcs = rng.choice(g.n, size=7, replace=False).astype(np.int64)
        offs = rng.uniform(0.0, 5.0, 7)
        res = shortest_paths(g, srcs, offsets=offs, backend=backend)
        dist, parent, owner = dijkstra_reference(g, srcs, offsets=offs)
        assert np.allclose(res.dist, dist)
        assert np.array_equal(res.owner, owner)
        assert np.array_equal(res.parent, parent)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_source_race_argmin(self, backend):
        # the EST-exact workload: every vertex races with a real offset
        g = _random_weighted(90, 360, seed=17)
        rng = np.random.default_rng(17)
        offs = rng.exponential(2.0, g.n)
        res = shortest_paths(g, np.arange(g.n), offsets=offs, backend=backend)
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
        for backend in BACKENDS:
            res = shortest_paths(
                g,
                np.array([0, 4]),
                offsets=np.array([0.0, 0.0]),
                backend=backend,
            )
            assert res.owner[2] == 0, backend

    def test_tie_break_rank_beats_vertex_order(self):
        # two disjoint branches meet at 5 at distance 2; the rank-0
        # source (vertex 3) must win on every backend even though the
        # competing branch settles lower vertex ids first
        g = from_edges(6, [(3, 4), (4, 5), (0, 1), (1, 5)])
        for backend in BACKENDS:
            res = shortest_paths(
                g,
                np.array([3, 0]),
                offsets=np.array([0.0, 0.0]),
                backend=backend,
            )
            assert res.owner[5] == 3, backend

    def test_tiny_delta_terminates(self):
        # float roundoff: (d // delta) * delta + delta == d when
        # d/delta ~ 1e16 — must degrade to a point bucket, not hang
        g = _random_weighted(60, 180, seed=29, lo=1000.0, hi=100000.0, kind="uniform")
        res = shortest_paths(g, 0, delta=1e-10)
        assert np.allclose(res.dist, dijkstra_scipy(g, 0))

    @pytest.mark.parametrize("seed", [31, 32])
    def test_backends_agree_on_random_weights(self, seed):
        g = _random_weighted(130, 520, seed)
        results = [
            shortest_paths(g, 0, backend=b) for b in BACKENDS
        ]
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

    def test_max_dist_prunes(self, small_int_weighted):
        w = small_int_weighted.weights.astype(np.int64)
        res = shortest_paths(
            small_int_weighted, 0, offsets=np.array([0]), weights=w, max_dist=3
        )
        full = dijkstra_scipy(small_int_weighted, 0)
        near = full <= 3
        assert (res.dist[near].astype(float) == full[near]).all()
        assert (res.dist[full > 4] == INT_INF).all()
        assert (res.owner[res.dist == INT_INF] == -1).all()


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
            resolve_backend("cuda")

    def test_max_dist_consistent_across_backends(self):
        # the cutoff must fall inside a bucket and still prune identically
        g = _random_weighted(80, 240, seed=47)
        cut = float(np.median(dijkstra_scipy(g, 0)))
        results = [
            shortest_paths(g, 0, max_dist=cut, backend=b, delta=cut * 0.7)
            for b in BACKENDS
        ]
        for r in results[1:]:
            assert np.allclose(results[0].dist, r.dist, equal_nan=True)
            assert np.array_equal(np.isinf(results[0].dist), np.isinf(r.dist))

    def test_default_backend_roundtrip(self):
        g = _random_weighted(30, 90, seed=45)
        assert shortest_paths(g, 0).backend == "numpy"
        try:
            assert set_default_backend("reference") == "reference"
            assert shortest_paths(g, 0).backend == "reference"
        finally:
            set_default_backend("numpy")
        assert shortest_paths(g, 0).backend == "numpy"

    def test_numba_request_degrades_gracefully(self):
        # on machines without numba this resolves to numpy; with numba
        # it runs the JIT kernel — either way the answer is exact
        g = _random_weighted(50, 150, seed=46)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = shortest_paths(g, 0, backend="numba")
        assert res.backend in ("numpy", "numba")
        assert np.allclose(res.dist, dijkstra_scipy(g, 0))

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

    def test_reference_max_dist(self, small_weighted):
        full = dijkstra_scipy(small_weighted, 0)
        cut = float(np.median(full[np.isfinite(full)]))
        dist, parent, owner = dijkstra_reference(small_weighted, 0, max_dist=cut)
        near = full <= cut
        assert np.allclose(dist[near], full[near])
        assert np.isinf(dist[~near]).all()
        assert (owner[~near] == -1).all()

    def test_grid_unweighted(self):
        g = grid_graph(12, 12)
        dist, _, _ = dijkstra(g, 0)
        assert np.allclose(dist, dijkstra_scipy(g, 0))


class TestDistributedSSSP:
    def test_matches_engine(self):
        from repro.distributed import distributed_sssp

        g = _random_weighted(50, 150, seed=51, lo=1.0, hi=8.0, kind="uniform")
        srcs = np.array([0, 11])
        offs = np.array([0.0, 2.0])
        dist, parent, owner, net = distributed_sssp(g, srcs, offsets=offs)
        res = shortest_paths(g, srcs, offsets=offs)
        assert np.allclose(dist, res.dist)
        assert np.array_equal(owner, res.owner)
        assert net.rounds >= 1 and net.total_messages > 0


# every entry point that takes a vertex id, called with that id out of
# range; ``hs`` maps hopset kind ("unweighted", "weighted", "limited")
# to a hopset built on ``g``
_ID_ENTRY_POINTS = {
    "shortest_paths": lambda g, hs, v: shortest_paths(g, v),
    "shortest_paths_reference": lambda g, hs, v: shortest_paths(
        g, v, backend="reference"
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
