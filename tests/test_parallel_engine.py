"""Engine claims and the ``workers`` policy behind numba's prange batches.

``workers`` changes wall-clock, never results, and only the numba
backend's batch wrapper reads it.  Covers the scatter-min claim
reduction against a lexsort reference, the numba batch wrapper's
routing into the ``prange``-parallel cores (compiled in the numba CI
job, pure-Python stubs elsewhere), the degenerate-batch accounting
rules, and the worker-count resolution and its default policy.
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
)
from repro.paths import shortest_paths, shortest_paths_batch
from repro.paths.engine import _normalize_runs, _resolve_split, _resolve_weights_and_delta
from repro.pram import PramTracker

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _float_graph(n, m, seed):
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    return with_random_weights(g, 0.5, 40.0, "loguniform", seed=seed + 100)


def _int_graph(n, m, seed):
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    return with_random_weights(g, 1, 8, "integer", seed=seed + 100)


class TestTieBreakDeterminism:
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
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # any machine
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
                offs, ranks, delta, lh)

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
        for x, y in zip(seq[:3], par[:3]):
            assert np.array_equal(x, y)
        assert seq[3] == par[3] and seq[4] == par[4]

    @pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")
    def test_compiled_batch_matches_sequential(self):
        """The compiled prange cores return the sequential loop's labels
        and ledger.  The engine drops a batch's labels, so the wrapper is
        called directly, with the arguments the engine passes it."""
        g = _int_graph(150, 600, seed=13)
        run_src, run_ptr, offs = _normalize_runs(np.arange(12), None, g.n)
        ranks = np.zeros(12, dtype=np.int64)
        w, int_mode, delta = _resolve_weights_and_delta(g, None, offs, None)
        split = _resolve_split(g, None, w, delta, int_mode)
        args = (g.indptr, g.indices, w, g.n, run_src, run_ptr, offs, ranks, delta)
        seq = nbk.bucket_sssp_batch_numba(*args, light_heavy=split, workers=1)
        par = nbk.bucket_sssp_batch_numba(*args, light_heavy=split, workers=2)
        for x, y in zip(seq[:3], par[:3]):
            assert x.dtype == y.dtype
            assert np.array_equal(x, y)
        assert seq[3] == par[3] and seq[4] == par[4]


class TestDegenerateBatches:
    """Zero runs / nothing-reachable batches must charge the tracker
    nothing and still come back correctly shaped."""

    # "reference" runs the batch on the heapq oracle kernel
    @pytest.mark.parametrize("backend", ["numpy", "reference"], indirect=True)
    @pytest.mark.parametrize("runs", [[], [[]], [[], []]])
    def test_empty_batches_charge_nothing(self, backend, runs):
        g = _float_graph(30, 90, seed=17)
        t = PramTracker(n=g.n)
        res = shortest_paths_batch(g, runs, backend=backend, tracker=t)
        k = len(runs)
        assert res.dist.shape == (k, g.n)
        # every row is the unreached row of a sourceless singleton run
        single = shortest_paths(g, np.empty(0, np.int64), backend=backend)
        assert res.dist.dtype == single.dist.dtype == np.float64
        assert (single.owner == -1).all()
        assert (res.dist == single.dist).all() and np.isinf(res.dist).all()
        assert res.buckets == 0 and res.relax_rounds == 0
        assert res.arcs_relaxed == 0
        assert t.work == 0 and t.rounds == 0

    def test_zero_runs_int_mode_shape(self):
        g = _int_graph(25, 80, seed=19)
        res = shortest_paths_batch(g, [], weights=g.weights.astype(np.int64))
        assert res.dist.shape == (0, g.n) and res.dist.dtype == np.int64

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
    def test_effective_workers_oversubscribe(self, monkeypatch):
        assert effective_workers(None) >= 1
        assert effective_workers(0) == 1
        # explicit requests are capped at the machine, never oversubscribed
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert effective_workers(3) == 3
        assert effective_workers(8) == 4
        assert effective_workers(10**6) == 4
        assert effective_workers(None) == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: 1 core
        assert effective_workers(None) == 1


class TestHopsetWorkers:
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

    def test_policy_resolution(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert get_default_workers() == 1  # historical serial default
        assert effective_workers(DEFAULT_WORKERS) == 1
        set_default_workers(6)
        assert effective_workers(DEFAULT_WORKERS) == 6
        set_default_workers(None)  # "all cores"
        assert effective_workers(DEFAULT_WORKERS) == 8
        with pytest.raises(ValueError):
            set_default_workers(0)

    def test_explicit_workers_override_policy(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        set_default_workers(8)
        assert effective_workers(2) == 2
        assert effective_workers(None) == 8

    def test_policy_reaches_engine_defaults(self, monkeypatch):
        # the numba batch wrapper is the one reader of the policy: stub
        # the toolchain so the engine routes there (the cores stay
        # executable as pure Python)
        monkeypatch.setattr(kernels, "HAVE_NUMBA", True)
        monkeypatch.setattr(nbk, "HAVE_NUMBA", True)
        seen = []
        real = nbk.effective_workers

        def spy(requested=None):
            seen.append(requested)
            return real(requested)

        monkeypatch.setattr(nbk, "effective_workers", spy)
        g = _float_graph(40, 120, seed=61)
        res = shortest_paths_batch(g, np.arange(3), backend="numba")
        assert res.backend == "numba"  # no workers argument anywhere
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
        # isolated vertex: unreached stays INT_INF/-1
        g = from_edges(4, [(0, 1)], weights=[2.0])
        gi = from_edges(4, [(0, 1)], weights=[3.0])
        res = shortest_paths(
            gi, 0, offsets=np.asarray([0]), weights=gi.weights.astype(np.int64)
        )
        assert res.dist[3] == INT_INF and res.owner[3] == -1
        res_f = shortest_paths(g, 0)
        assert np.isinf(res_f.dist[3])
