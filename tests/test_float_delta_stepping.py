"""Real-weight delta-stepping: light/heavy split, dtype dispatch, fallback.

Covers the float path of the bucket engine (light-edge fixpoint +
heavy settle pass) against the heapq reference oracle — property-based
over random float-weighted graphs, single-source and batched — plus
the backend registry's strict/graceful numba handling and the CLI's
explicit-backend error contract.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from oracles import KERNELS, dijkstra_reference
from repro.errors import ParameterError
from repro.graph import from_edges, gnm_random_graph, with_random_weights
from repro.kernels import available_backends, require_backend, split_light_heavy
from repro.kernels.numba_kernel import _delta_sssp_core
from repro.paths import shortest_paths, shortest_paths_batch
from repro.paths.delta_stepping import delta_stepping
from repro.paths.dijkstra import dijkstra_scipy
from repro.pram import PramTracker

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_float_graph(n, m, seed, lo=0.5, hi=60.0):
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    return with_random_weights(g, lo, hi, "loguniform", seed=seed + 513)


@st.composite
def float_graphs(draw):
    """A connected float-weighted G(n, m) plus a source set with offsets."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n = draw(st.integers(min_value=3, max_value=60))
    m = min(draw(st.integers(min_value=n, max_value=4 * n)), n * (n - 1) // 2)
    k = draw(st.integers(min_value=1, max_value=min(n, 5)))
    g = _random_float_graph(n, m, seed)
    rng = np.random.default_rng(seed + 7)
    sources = rng.choice(n, size=k, replace=False).astype(np.int64)
    offsets = rng.uniform(0.0, 3.0, k)
    delta = draw(
        st.one_of(st.none(), st.floats(min_value=0.25, max_value=200.0))
    )
    return g, sources, offsets, delta


class TestSplit:
    def test_partition_is_exact(self):
        g = _random_float_graph(40, 150, seed=3)
        delta = float(np.median(g.weights))
        lip, lidx, lw, hip, hidx, hw = split_light_heavy(
            g.indptr, g.indices, g.weights, delta
        )
        assert (lw <= delta).all() and (hw > delta).all()
        # every arc lands in exactly one half, per source vertex
        assert lidx.shape[0] + hidx.shape[0] == g.num_arcs
        for v in range(g.n):
            mine = np.sort(g.neighbors(v))
            split = np.sort(
                np.concatenate([lidx[lip[v] : lip[v + 1]], hidx[hip[v] : hip[v + 1]]])
            )
            assert np.array_equal(mine, split)

    def test_graph_cache_returns_same_object(self):
        g = _random_float_graph(30, 90, seed=5)
        a = g.light_heavy_split(2.0)
        b = g.light_heavy_split(2.0)
        assert a is b
        c = g.light_heavy_split(3.0)
        assert c is not a

    def test_suggest_delta_heuristic(self):
        g = _random_float_graph(50, 200, seed=8)
        d = g.suggest_delta()
        assert d == pytest.approx(g.max_weight / (g.num_arcs / g.n))
        assert from_edges(3, [(0, 1)], weights=[4.0]).suggest_delta() > 0


class TestFloatPathMatchesReference:
    @SETTINGS
    @given(float_graphs())
    def test_single_run_matches_heapq_oracle(self, spec):
        g, sources, offsets, delta = spec
        res = shortest_paths(g, sources, offsets=offsets, delta=delta)
        dist, parent, owner = dijkstra_reference(g, sources, offsets=offsets)
        assert res.dist.dtype == np.float64
        assert np.allclose(res.dist, dist)
        assert np.array_equal(res.owner, owner)
        assert np.array_equal(res.parent, parent)

    @SETTINGS
    @given(float_graphs())
    def test_batch_matches_per_run_engine(self, spec):
        # a batch starts every source at zero at the default delta
        g, sources, _, _ = spec
        # one singleton run per source plus one joint multi-source run
        runs = [np.asarray([s]) for s in sources] + [sources]
        batch = shortest_paths_batch(g, runs)
        assert batch.k == len(runs)
        for i, srcs in enumerate(runs):
            dist, _, _ = dijkstra_reference(g, srcs)
            assert np.allclose(batch.dist[i], dist)
            # the batch row is the singleton run's, bit for bit, with
            # the same vertices unreached
            single = shortest_paths(g, srcs)
            assert batch.dist[i].dtype == single.dist.dtype == np.float64
            assert np.array_equal(batch.dist[i], single.dist)
            assert np.array_equal(np.isinf(batch.dist[i]), single.owner == -1)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_all_source_race(self, seed):
        g = _random_float_graph(70, 260, seed=seed)
        rng = np.random.default_rng(seed)
        offs = rng.exponential(2.0, g.n)
        res = shortest_paths(g, np.arange(g.n), offsets=offs)
        dist, _, owner = dijkstra_reference(g, np.arange(g.n), offsets=offs)
        assert np.allclose(res.dist, dist)
        assert np.array_equal(res.owner, owner)

    def test_int_weights_keep_dial_fast_path(self):
        g = gnm_random_graph(60, 200, seed=11, connected=True)
        g = with_random_weights(g, 1, 9, "integer", seed=12)
        w = g.weights.astype(np.int64)
        res = shortest_paths(g, 0, offsets=np.array([0]), weights=w)
        assert res.dist.dtype == np.int64
        assert res.delta == 1.0
        # Dial schedule: exactly one relaxation round per bucket
        assert res.relax_rounds == res.buckets

    def test_float_rounds_include_heavy_phases(self):
        # with a split, a bucket costs its light iterations plus one
        # heavy round: the ledger must exceed the bucket count
        g = _random_float_graph(120, 480, seed=13)
        t = PramTracker(n=g.n, depth_per_round=1)
        res = shortest_paths(g, 0, tracker=t)
        assert res.relax_rounds > res.buckets
        assert t.rounds == res.relax_rounds
        assert t.work == res.arcs_relaxed
        assert res.arcs_relaxed >= 2 * g.m


class TestDeltaCore:
    """The numba delta-stepping core, exercised directly (pure-Python
    stub without numba; the compiled artifact in the numba CI job)."""

    def _run(self, g, sources, offsets, delta):
        split = split_light_heavy(g.indptr, g.indices, g.weights, delta)
        ranks = np.arange(len(sources), dtype=np.int64)
        return _delta_sssp_core(
            *split,
            g.n,
            np.asarray(sources, np.int64),
            np.asarray(offsets, np.float64),
            ranks,
            float(delta),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("delta_kind", ["auto", "tiny", "huge"])
    def test_matches_reference(self, seed, delta_kind):
        g = _random_float_graph(60, 220, seed=seed)
        delta = {"auto": g.suggest_delta(), "tiny": 0.05, "huge": 1e6}[delta_kind]
        dist, parent, owner, arcs, buckets = self._run(g, [4], [0.0], delta)
        dref, pref, oref = dijkstra_reference(g, 4)
        assert np.allclose(dist, dref)
        assert np.array_equal(parent, pref)
        assert np.array_equal(owner, oref)
        assert np.isfinite(dist).all() and arcs >= g.num_arcs and buckets >= 1

    def test_rank_tie_break(self):
        # two equal-distance claims: the earlier source entry must win
        g = from_edges(6, [(3, 4), (4, 5), (0, 1), (1, 5)])
        _, _, owner, _, _ = self._run(g, [3, 0], [0.0, 0.0], g.suggest_delta())
        assert owner[5] == 3


class TestBackendRegistry:
    def test_available_backends_reports_reality(self):
        avail = available_backends()
        assert "numpy" in avail and "reference" not in avail
        assert ("numba" in avail) == kernels.HAVE_NUMBA
        with pytest.raises(ParameterError):
            kernels.resolve_backend("reference")

    def test_require_backend_strict(self, monkeypatch):
        assert require_backend("numpy") == "numpy"
        with pytest.raises(ParameterError):
            require_backend("cuda")
        monkeypatch.setattr(kernels, "HAVE_NUMBA", False)
        with pytest.raises(ParameterError, match="requested explicitly"):
            require_backend("numba")

    def test_numba_fallback_warns_and_matches_numpy(self, monkeypatch):
        # simulate a machine without numba regardless of the host: the
        # registry must degrade to numpy with a warning and identical
        # results, not crash
        monkeypatch.setattr(kernels, "HAVE_NUMBA", False)
        monkeypatch.setattr(kernels, "_warned_numba", False)
        g = _random_float_graph(40, 130, seed=31)
        with pytest.warns(RuntimeWarning, match="falling back"):
            res = shortest_paths(g, 0, backend="numba")
        assert res.backend == "numpy"
        plain = shortest_paths(g, 0, backend="numpy")
        assert np.array_equal(res.dist, plain.dist)
        assert np.array_equal(res.parent, plain.parent)
        # the warning is once-per-process: a second call stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shortest_paths(g, 0, backend="numba")

    @pytest.mark.parametrize("backend", KERNELS, indirect=True)
    def test_float_path_all_backends(self, backend):
        g = _random_float_graph(90, 330, seed=37)
        res = shortest_paths(g, 3, backend=backend)
        assert np.allclose(res.dist, dijkstra_scipy(g, 3))


class TestCLIBackendContract:
    def test_explicit_unavailable_backend_errors(self, monkeypatch, capsys, tmp_path):
        import repro.kernels as k

        monkeypatch.setattr(k, "HAVE_NUMBA", False)
        from repro.cli import main

        rc = main(["sssp", "--n", "40", "--m", "120", "--backend", "numba"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "numba" in err and "available" in err

    def test_reference_is_not_a_backend(self, capsys):
        # the heapq Dijkstra is a test oracle now, not a CLI choice
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sssp", "--n", "40", "--m", "120", "--backend", "reference"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_explicit_available_backend_runs(self, capsys):
        from repro.cli import main

        assert main(["sssp", "--n", "40", "--m", "120", "--backend", "numpy", "--check"]) == 0
        out = capsys.readouterr().out
        assert "backend=numpy" in out and "match" in out


class TestDeltaSteppingFrontEnd:
    def test_matches_scipy_and_counts_phases(self):
        g = _random_float_graph(100, 400, seed=41)
        t = PramTracker(n=g.n, depth_per_round=1)
        dist, phases = delta_stepping(g, 0, tracker=t)
        assert np.allclose(dist, dijkstra_scipy(g, 0))
        assert phases >= 1 and t.rounds >= phases

    def test_no_quantization_detour(self):
        # irrational-ish weights must survive bit-exact (no rounding)
        g = from_edges(3, [(0, 1), (1, 2)], weights=[np.pi, np.e])
        dist, _ = delta_stepping(g, 0)
        assert dist[2] == np.pi + np.e

