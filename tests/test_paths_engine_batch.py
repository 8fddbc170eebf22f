"""Tests for the batched multi-run engine API (``shortest_paths_batch``).

The contract under test: every row of a batch holds exactly the
distances a standalone :func:`shortest_paths` call with the same
sources/offsets returns — value for value and dtype for dtype, with the
same vertices unreached — on every kernel, on multi-component graphs,
and under tie-heavy unweighted inputs.  A batch keeps no parents or
owners: a run's labels come from :func:`shortest_paths`.
"""

import numpy as np
import pytest

from oracles import KERNELS, engine_kernel
from repro.graph import from_edges, gnm_random_graph, with_random_weights
from repro.paths import shortest_paths, shortest_paths_batch
from repro.pram import PramTracker

INT_INF = np.iinfo(np.int64).max


def _assert_row_matches(row, single):
    """Batch row ``row`` equals the singleton result ``single``: same
    dtype, same distances, and unreached exactly where the singleton
    run left a vertex without an owner."""
    assert row.dtype == single.dist.dtype
    assert np.array_equal(row, single.dist)
    unreached = row == (INT_INF if row.dtype == np.int64 else np.inf)
    assert np.array_equal(unreached, single.owner == -1)


def _weighted(n, m, seed, kind="loguniform", lo=1.0, hi=40.0):
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    return with_random_weights(g, lo, hi, kind, seed=seed + 1000)


def _multi_component(seed):
    """Three disjoint random blobs glued into one vertex space."""
    rng = np.random.default_rng(seed)
    parts = []
    offset = 0
    for n, m in ((40, 120), (60, 180), (30, 80)):
        g = gnm_random_graph(n, m, seed=int(rng.integers(1 << 30)), connected=True)
        parts.append(g.edges_array() + offset)
        offset += n
    return from_edges(offset, np.concatenate(parts))


class TestSingletonRuns:
    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_matches_per_source_loop_float(self, kernel):
        g = _weighted(150, 600, seed=3)
        srcs = np.array([0, 17, 63, 149])
        res = shortest_paths_batch(g, srcs)
        assert res.dist.shape == (4, g.n)
        for i, s in enumerate(srcs):
            _assert_row_matches(res.dist[i], shortest_paths(g, int(s)))

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_matches_per_source_loop_integer(self, kernel):
        g = _weighted(120, 480, seed=5, kind="integer", lo=1, hi=9)
        w = g.weights.astype(np.int64)
        srcs = np.array([2, 50, 80])
        res = shortest_paths_batch(g, srcs, weights=w)
        assert res.dist.dtype == np.int64  # Dial mode engages per batch
        for i, s in enumerate(srcs):
            single = shortest_paths(g, int(s), weights=w)
            _assert_row_matches(res.dist[i], single)

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_multi_component_rows_stay_confined(self, kernel):
        g = _multi_component(seed=11)
        srcs = np.array([0, 45, 101])  # one source per component
        res = shortest_paths_batch(g, srcs)
        for i, s in enumerate(srcs):
            single = shortest_paths(g, int(s))
            _assert_row_matches(res.dist[i], single)

    def test_unweighted_ties_distance_parity(self):
        # path 0-1-2-3-4 raced from both ends inside one run: vertex 2
        # is claimed at distance 2 from both sources, and the batch row
        # must equal the singleton race on every kernel
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        for kernel in KERNELS:
            with engine_kernel(kernel):
                res = shortest_paths_batch(g, [np.array([0, 4])])
                single = shortest_paths(g, np.array([0, 4]))
            _assert_row_matches(res.dist[0], single)
            assert res.dist[0].tolist() == [0, 1, 2, 1, 0], kernel


class TestMultiSourceRuns:
    def test_runs_are_independent(self):
        # a vertex reached in run 0 stays unreached in a run sourced
        # elsewhere: no cross-run leakage through the shared frontier
        g = _multi_component(seed=13)
        res = shortest_paths_batch(g, [np.array([0]), np.array([45])])
        assert np.isfinite(res.dist[0][:40]).all()
        assert np.isinf(res.dist[0][40:]).all()
        assert np.isinf(res.dist[1][:40]).all()


class TestShapesAndLedger:
    def test_empty_batch(self):
        g = _weighted(30, 90, seed=15)
        res = shortest_paths_batch(g, np.empty(0, np.int64))
        assert res.dist.shape == (0, g.n)
        assert res.k == 0

    def test_empty_run_row(self):
        g = _weighted(30, 90, seed=15)
        res = shortest_paths_batch(g, [np.array([0]), np.empty(0, np.int64)])
        assert np.isfinite(res.dist[0]).all()
        assert np.isinf(res.dist[1]).all()
        _assert_row_matches(res.dist[1], shortest_paths(g, np.empty(0, np.int64)))

    def test_tracker_charged_once_for_the_batch(self):
        g = _weighted(100, 400, seed=21)
        t = PramTracker(n=g.n, depth_per_round=1)
        res = shortest_paths_batch(g, np.array([0, 5, 9]), tracker=t)
        assert t.work == res.arcs_relaxed
        assert t.rounds == res.relax_rounds
        # sharing: the batch schedule is far shorter than the three
        # runs played back to back
        singles = sum(
            shortest_paths(g, s).relax_rounds for s in (0, 5, 9)
        )
        assert res.relax_rounds < singles

    def test_deterministic(self):
        g = _weighted(90, 360, seed=25)
        a = shortest_paths_batch(g, np.array([0, 7, 13]))
        b = shortest_paths_batch(g, np.array([0, 7, 13]))
        assert a.dist.dtype == b.dist.dtype
        assert np.array_equal(a.dist, b.dist)
        assert (a.buckets, a.relax_rounds, a.arcs_relaxed) == (
            b.buckets, b.relax_rounds, b.arcs_relaxed
        )

    def test_backends_agree(self):
        g = _weighted(110, 440, seed=27)
        srcs = np.array([0, 33, 77])
        results = []
        for kernel in KERNELS:
            with engine_kernel(kernel):
                results.append(shortest_paths_batch(g, srcs))
        for r in results[1:]:
            assert r.dist.dtype == results[0].dist.dtype
            assert np.allclose(results[0].dist, r.dist)
            assert np.array_equal(np.isinf(results[0].dist), np.isinf(r.dist))
