"""Multicore bucket engine: sharded numpy rounds, prange numba batches.

Pins the PR-4 contract: ``workers`` changes wall-clock, never results.
Covers the hypothesis equivalence ``workers=1`` vs ``workers=4``
(single and batched, integer Dial and float delta-stepping),
thread-count independence of the tie-break reduction, the numba batch
wrapper's routing into the ``prange``-parallel cores (compiled in the
numba CI job, pure-Python stubs elsewhere), the degenerate-batch
accounting rules, and the worker-count resolution.
"""

import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
import repro.kernels.numba_kernel as nbk
import repro.kernels.numpy_kernel as npk
from repro.graph import from_edges, gnm_random_graph, with_random_weights
from repro.kernels.numpy_kernel import INT_INF, split_light_heavy
from repro.parallel import (
    DEFAULT_WORKERS,
    effective_workers,
    get_default_workers,
    set_default_workers,
    shard_frontier,
)
from repro.paths import shortest_paths, shortest_paths_batch
from repro.pram import PramTracker

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(autouse=True)
def _tiny_shards(monkeypatch):
    """Force the sharded relaxation path on test-sized frontiers (the
    production threshold exists to amortize thread overhead, not for
    correctness)."""
    monkeypatch.setattr(npk, "PAR_MIN_SHARD", 4)


def _float_graph(n, m, seed):
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    return with_random_weights(g, 0.5, 40.0, "loguniform", seed=seed + 100)


def _int_graph(n, m, seed):
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    return with_random_weights(g, 1, 8, "integer", seed=seed + 100)


def _assert_same_result(a, b):
    assert a.dist.dtype == b.dist.dtype
    assert np.array_equal(a.dist, b.dist)
    assert np.array_equal(a.parent, b.parent)
    assert np.array_equal(a.owner, b.owner)
    assert a.buckets == b.buckets
    assert a.relax_rounds == b.relax_rounds
    assert a.arcs_relaxed == b.arcs_relaxed


@st.composite
def engine_specs(draw):
    """A connected weighted graph (either regime) + sources/offsets."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n = draw(st.integers(min_value=4, max_value=70))
    m = min(draw(st.integers(min_value=n, max_value=4 * n)), n * (n - 1) // 2)
    k = draw(st.integers(min_value=1, max_value=min(n, 6)))
    int_mode = draw(st.booleans())
    rng = np.random.default_rng(seed + 5)
    sources = rng.choice(n, size=k, replace=False).astype(np.int64)
    if int_mode:
        g = _int_graph(n, m, seed)
        offsets = rng.integers(0, 4, k).astype(np.int64)
    else:
        g = _float_graph(n, m, seed)
        offsets = rng.uniform(0.0, 3.0, k)
    return g, sources, offsets, int_mode


class TestWorkersEquivalence:
    @SETTINGS
    @given(engine_specs())
    def test_single_run_workers_bit_identical(self, spec):
        g, sources, offsets, int_mode = spec
        w = g.weights.astype(np.int64) if int_mode else None
        serial = shortest_paths(g, sources, offsets=offsets, weights=w, workers=1)
        threaded = shortest_paths(g, sources, offsets=offsets, weights=w, workers=4)
        assert (serial.dist.dtype == np.int64) == int_mode
        _assert_same_result(serial, threaded)

    @SETTINGS
    @given(engine_specs())
    def test_batch_workers_bit_identical(self, spec):
        g, sources, offsets, int_mode = spec
        w = g.weights.astype(np.int64) if int_mode else None
        runs = [np.asarray([s]) for s in sources] + [sources]
        offs = [np.asarray([o]) for o in offsets] + [offsets]
        serial = shortest_paths_batch(g, runs, offs, weights=w, workers=1)
        threaded = shortest_paths_batch(g, runs, offs, weights=w, workers=4)
        _assert_same_result(serial, threaded)

    def test_all_source_race_workers_all_cores(self):
        # workers=None (all cores) on the frontier-heaviest workload
        g = _float_graph(150, 600, seed=3)
        offs = np.random.default_rng(4).exponential(2.0, g.n)
        serial = shortest_paths(g, np.arange(g.n), offsets=offs, workers=1)
        threaded = shortest_paths(g, np.arange(g.n), offsets=offs, workers=None)
        _assert_same_result(serial, threaded)

    def test_tracker_ledger_independent_of_workers(self):
        # single source in both weight regimes; the all-source race is
        # covered per worker count by TestProcessShardMode
        for g, race_offs in _ledger_regimes():
            source, offset = np.asarray([0]), race_offs[:1] * 0
            serial, ledger = _labels_and_ledger(g, source, offset, 1)
            for nw in (2, 3, 5, 8):
                sharded, other = _labels_and_ledger(g, source, offset, nw)
                _assert_same_result(serial, sharded)
                assert other == ledger, (g.weights.dtype, nw)


def _ledger_regimes():
    """An integer (Dial) and a float (delta-stepping) graph, each with
    all-source race offsets of its own weight type."""
    offs = np.random.default_rng(44).exponential(2.0, 150)
    return [
        (_int_graph(150, 600, seed=5), np.floor(offs).astype(np.int64)),
        (_float_graph(150, 600, seed=43), offs),
    ]


def _labels_and_ledger(g, sources, offsets, nw):
    w = g.weights.astype(np.int64) if offsets.dtype == np.int64 else None
    t = PramTracker(n=g.n, depth_per_round=1)
    res = shortest_paths(g, sources, offsets=offsets, weights=w,
                         tracker=t, workers=nw)
    return res, (t.work, t.rounds, t.depth)


class TestProcessShardMode:
    """The worker-count contract first pinned for the retired forked
    shard mode, now held by thread shards: the all-source offset race
    (the EST shape) yields the serial labels and the serial tracker
    work/rounds/depth for any worker count, in both weight regimes."""

    @pytest.mark.parametrize("nw", [2, 3, 5, 8])
    def test_any_worker_count_same_labels_and_ledger(self, nw):
        for g, race_offs in _ledger_regimes():
            serial, ledger = _labels_and_ledger(g, np.arange(g.n), race_offs, 1)
            sharded, other = _labels_and_ledger(g, np.arange(g.n), race_offs, nw)
            _assert_same_result(serial, sharded)
            assert other == ledger, (g.weights.dtype, nw)


class TestTieBreakDeterminism:
    """The claim reduction must crown the same winners for every shard
    layout — exercised on tie-rich unweighted graphs where many sources
    claim the same vertex at equal distance."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_thread_count_does_not_change_ties(self, seed):
        g = gnm_random_graph(120, 600, seed=seed, connected=True)
        rng = np.random.default_rng(seed)
        sources = rng.permutation(g.n)[:40].astype(np.int64)
        offsets = np.zeros(40, dtype=np.int64)  # all-equal starts: max ties
        results = [
            shortest_paths(g, sources, offsets=offsets, workers=nw)
            for nw in (1, 2, 3, 5)
        ]
        for other in results[1:]:
            _assert_same_result(results[0], other)

    @SETTINGS
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=1, max_value=400),
        st.sampled_from([np.int64, np.float64]),
        st.sampled_from([np.int32, np.int64]),
        st.booleans(),
    )
    def test_claim_min_matches_lexsort_reference(self, seed, m, cand_dtype,
                                                 id_dtype, ranked):
        """The scatter-min claim crowns exactly the lexsort winners —
        min (cand, rank[src], src) per state — on tie-heavy claims with
        parallel duplicates, in any input order."""
        rng = np.random.default_rng(seed)
        nn = 40
        nbr = rng.integers(0, nn, m).astype(id_dtype)
        src = rng.integers(0, nn, m).astype(id_dtype)
        cand = rng.integers(0, 4, m).astype(cand_dtype)  # few values: ties
        dup = rng.random(m) < 0.2  # equal-weight parallel arcs
        nbr[1:][dup[1:]], src[1:][dup[1:]] = nbr[:-1][dup[1:]], src[:-1][dup[1:]]
        cand[1:][dup[1:]] = cand[:-1][dup[1:]]
        rank = rng.integers(0, 3, nn) if ranked else np.zeros(nn, np.int64)

        sel = np.lexsort((src, rank[src], cand, nbr))
        first = np.ones(m, dtype=bool)
        first[1:] = nbr[sel][1:] != nbr[sel][:-1]
        want = tuple(a[sel][first] for a in (nbr, src, cand))

        perm = rng.permutation(m)
        buf = np.full(nn, -7, dtype=np.int64)  # stale scratch is fine
        got = npk.claim_min(nbr[perm], src[perm], cand[perm],
                            rank if ranked else None, buf)
        order = np.argsort(got[0])
        assert len(set(got[0].tolist())) == got[0].shape[0]
        for g_arr, w_arr in zip(got, want):
            assert g_arr.dtype == w_arr.dtype
            assert np.array_equal(g_arr[order], w_arr)

    def test_shard_boundary_straddles_claims(self):
        # a star-like tie: every leaf claims the hub at distance 1;
        # the lowest-rank source must win no matter where shards split
        edges = [(i, 60) for i in range(60)]
        g = from_edges(61, edges)
        sources = np.arange(59, -1, -1, dtype=np.int64)  # ranks reversed
        for nw in (1, 2, 4, 7):
            res = shortest_paths(g, sources, workers=nw)
            assert res.owner[60] == 59  # rank 0 is vertex 59
            assert res.dist[60] == 1


class TestNumbaPrangeBatch:
    def test_batch_cores_compiled_parallel(self):
        """The CI prange assertion: with numba installed the batch
        cores must be parallel=True dispatchers; without it they are
        the executable pure-Python stubs."""
        if kernels.HAVE_NUMBA:
            assert nbk._heap_sssp_batch_core.targetoptions.get("parallel")
            assert nbk._delta_sssp_batch_core.targetoptions.get("parallel")
        else:
            assert nbk.prange is range

    @pytest.mark.parametrize("split", [False, True])
    def test_workers_route_through_batch_cores(self, split, monkeypatch):
        g = _float_graph(80, 300, seed=11)
        delta = g.suggest_delta()
        lh = (
            split_light_heavy(g.indptr, g.indices, g.weights, delta)
            if split
            else None
        )
        run_src = np.arange(8, dtype=np.int64)
        run_ptr = np.arange(9, dtype=np.int64)
        offs = np.zeros(8)
        ranks = np.zeros(8, dtype=np.int64)
        args = (g.indptr, g.indices, g.weights, g.n, run_src, run_ptr,
                offs, ranks, delta, None, lh)

        monkeypatch.setattr(nbk, "HAVE_NUMBA", True)  # stubs stay executable
        calls = []
        core_name = "_delta_sssp_batch_core" if split else "_heap_sssp_batch_core"
        real = getattr(nbk, core_name)

        def spy(*a, **k):
            calls.append(1)
            return real(*a, **k)

        monkeypatch.setattr(nbk, core_name, spy)
        seq = nbk.bucket_sssp_batch_numba(*args, workers=1)
        assert not calls  # workers=1 keeps the sequential schedule
        par = nbk.bucket_sssp_batch_numba(*args, workers=4)
        assert calls  # workers>1 dispatches the prange core
        for x, y in zip(seq[:4], par[:4]):
            assert np.array_equal(x, y)
        assert seq[4] == par[4] and seq[5] == par[5]

    @pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")
    def test_compiled_batch_matches_sequential(self):
        g = _int_graph(150, 600, seed=13)
        runs = np.arange(12, dtype=np.int64)
        a = shortest_paths_batch(g, runs, backend="numba", workers=1)
        b = shortest_paths_batch(g, runs, backend="numba", workers=2)
        _assert_same_result(a, b)


class TestDegenerateBatches:
    """Zero runs / nothing-reachable batches must charge the tracker
    nothing and still come back correctly shaped."""

    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    @pytest.mark.parametrize("runs", [[], [[]], [[], []]])
    def test_empty_batches_charge_nothing(self, backend, runs):
        g = _float_graph(30, 90, seed=17)
        t = PramTracker(n=g.n)
        res = shortest_paths_batch(g, runs, backend=backend, tracker=t)
        k = len(runs)
        assert res.dist.shape == (k, g.n)
        assert res.parent.shape == (k, g.n)
        assert np.isinf(res.dist).all()
        assert (res.parent == -1).all() and (res.owner == -1).all()
        assert res.buckets == 0 and res.relax_rounds == 0
        assert res.arcs_relaxed == 0
        assert t.work == 0 and t.rounds == 0

    def test_zero_runs_int_mode_shape(self):
        g = _int_graph(25, 80, seed=19)
        res = shortest_paths_batch(g, [], weights=g.weights.astype(np.int64))
        assert res.dist.shape == (0, g.n) and res.dist.dtype == np.int64

    def test_all_sources_beyond_max_dist(self):
        g = _float_graph(40, 120, seed=23)
        t = PramTracker(n=g.n)
        res = shortest_paths_batch(
            g, [np.asarray([0]), np.asarray([1])],
            [np.asarray([5.0]), np.asarray([6.0])],
            max_dist=1.0, tracker=t,
        )
        assert res.dist.shape == (2, g.n)
        assert np.isinf(res.dist).all()
        assert (res.owner == -1).all()
        assert t.work == 0 and t.rounds == 0

    def test_zero_runs_with_numba_requested(self):
        # resolves through the registry (numba or its numpy fallback):
        # the k == 0 early return must not touch any kernel
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = _float_graph(20, 60, seed=29)
            res = shortest_paths_batch(g, [], backend="numba")
        assert res.dist.shape == (0, g.n) and res.arcs_relaxed == 0


class TestNumbaWarnOnce:
    def test_batch_fallback_warns_once_per_process(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAVE_NUMBA", False)
        monkeypatch.setattr(kernels, "_warned_numba", False)
        g = _float_graph(30, 90, seed=31)
        with pytest.warns(RuntimeWarning, match="falling back"):
            shortest_paths_batch(g, np.arange(3), backend="numba")
        # a batched hopset build issues hundreds of engine calls; every
        # later resolution must stay silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shortest_paths_batch(g, np.arange(3), backend="numba")
            shortest_paths(g, 0, backend="numba")


class TestHelpers:
    def test_effective_workers_oversubscribe(self):
        avail = os.cpu_count() or 1
        assert effective_workers(4) <= avail
        assert effective_workers(4, oversubscribe=True) == 4
        assert effective_workers(10**6, oversubscribe=True) == 64  # typo cap
        assert effective_workers(None, oversubscribe=True) == avail
        assert effective_workers(0, oversubscribe=True) == 1

    def test_shard_frontier_contract(self):
        arr = np.arange(100)
        shards = shard_frontier(arr, 4, min_size=10)
        assert 1 <= len(shards) <= 4
        assert np.array_equal(np.concatenate(shards), arr)
        # min_size dominates the shard count
        assert len(shard_frontier(np.arange(15), 8, min_size=10)) == 1
        assert shard_frontier(np.empty(0, np.int64), 4)[0].shape == (0,)
        with pytest.raises(ValueError):
            shard_frontier(arr, 0)


class TestDistributedWorkers:
    def test_sweep_history_identical(self):
        from repro.distributed.sssp import distributed_sssp

        g = with_random_weights(
            gnm_random_graph(80, 240, seed=37, connected=True),
            1.0, 9.0, "uniform", seed=38,
        )
        base = distributed_sssp(g, np.asarray([0, 7]), workers=1)
        par = distributed_sssp(g, np.asarray([0, 7]), workers=4)
        for x, y in zip(base[:3], par[:3]):
            assert np.array_equal(x, y)
        n1, n4 = base[3], par[3]
        assert n1.rounds == n4.rounds
        assert n1.total_messages == n4.total_messages
        assert [(r.messages, r.active_nodes) for r in n1.history] == [
            (r.messages, r.active_nodes) for r in n4.history
        ]


class TestHopsetWorkers:
    def test_builds_identical_hopsets(self):
        from repro.hopsets import build_hopset

        g = _int_graph(300, 1200, seed=41)
        a = build_hopset(g, seed=7, workers=1)
        b = build_hopset(g, seed=7, workers=4)
        assert np.array_equal(a.eu, b.eu)
        assert np.array_equal(a.ev, b.ev)
        assert np.array_equal(a.ew, b.ew)

    def test_cli_workers_flag(self, capsys):
        from repro.cli import main

        rc = main(["sssp", "--n", "60", "--m", "240", "--workers", "3", "--check"])
        assert rc == 0
        assert "match" in capsys.readouterr().out


class TestWorkersDefaultPolicy:
    """Every ``workers=`` knob defaults to the DEFAULT_WORKERS sentinel,
    resolved through the session policy — so engine calls issued deep
    inside the batched builders follow one policy switch."""

    @pytest.fixture(autouse=True)
    def _restore_policy(self):
        prev = get_default_workers()
        yield
        set_default_workers(prev)

    def test_policy_resolution(self):
        assert get_default_workers() == 1  # historical serial default
        assert effective_workers(DEFAULT_WORKERS, oversubscribe=True) == 1
        set_default_workers(6)
        assert effective_workers(DEFAULT_WORKERS, oversubscribe=True) == 6
        set_default_workers(None)  # "all cores"
        assert effective_workers(DEFAULT_WORKERS) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            set_default_workers(0)

    def test_explicit_workers_override_policy(self):
        set_default_workers(8)
        assert effective_workers(2, oversubscribe=True) == 2
        assert effective_workers(None) == (os.cpu_count() or 1)

    def test_policy_reaches_engine_defaults(self, monkeypatch):
        seen = []
        real = npk.effective_workers

        def spy(requested=None, oversubscribe=False):
            seen.append(requested)
            return real(requested, oversubscribe)

        monkeypatch.setattr(npk, "effective_workers", spy)
        g = _float_graph(40, 120, seed=61)
        shortest_paths(g, 0)  # no workers argument anywhere
        assert seen and all(r is DEFAULT_WORKERS for r in seen)

    def test_policy_changes_builder_inner_calls(self):
        # a policy switch must not change results, only execution shape
        from repro.hopsets import build_hopset

        g = _int_graph(200, 800, seed=67)
        a = build_hopset(g, seed=7)
        set_default_workers(4)
        b = build_hopset(g, seed=7)
        assert np.array_equal(a.eu, b.eu)
        assert np.array_equal(a.ev, b.ev)
        assert np.array_equal(a.ew, b.ew)

    def test_set_default_workers_returns_previous(self):
        prev = set_default_workers(3)
        assert prev == 1
        assert set_default_workers(prev) == 3


class TestIntInfStaysUnreached:
    def test_unreachable_marker_roundtrip(self):
        # isolated vertex: threads or not, unreached stays INT_INF/-1
        g = from_edges(4, [(0, 1)], weights=[2.0])
        gi = from_edges(4, [(0, 1)], weights=[3.0])
        res = shortest_paths(
            gi, 0, offsets=np.asarray([0]),
            weights=gi.weights.astype(np.int64), workers=3,
        )
        assert res.dist[3] == INT_INF and res.owner[3] == -1
        res_f = shortest_paths(g, 0, workers=3)
        assert np.isinf(res_f.dist[3])
