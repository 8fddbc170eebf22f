"""Real-weight delta-stepping: light/heavy split, dtype dispatch.

Covers the float path of the bucket engine (light-edge fixpoint +
heavy settle pass) against the heapq reference oracle — property-based
over random float-weighted graphs, single-source and batched — plus
the refusal of any ``backend=`` but ``"numpy"`` and of the removed
CLI ``--backend`` flag.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import KERNELS, dijkstra_reference
from repro.errors import ParameterError
from repro.graph import from_edges, gnm_random_graph, with_random_weights
from repro.hopsets import build_hopset
from repro.kernels import bucket_sssp, split_light_heavy
from repro.paths import shortest_paths, shortest_paths_batch
from repro.paths.delta_stepping import delta_stepping
from repro.paths.dijkstra import dijkstra_scipy
from repro.pram import PramTracker
from repro.serve import DistanceServer
from repro.spanners import weighted_spanner

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
    """The delta-stepping kernel with a light/heavy split, called
    directly at the default, a tiny (every arc heavy) and a huge (every
    arc light) bucket width."""

    def _run(self, g, sources, offsets, delta):
        split = split_light_heavy(g.indptr, g.indices, g.weights, delta)
        ranks = np.arange(len(sources), dtype=np.int64)
        dist, parent, owner, work, rounds = bucket_sssp(
            g.indptr,
            g.indices,
            g.weights,
            g.n,
            np.asarray(sources, np.int64),
            np.asarray(offsets, np.float64),
            ranks,
            float(delta),
            light_heavy=split,
        )
        return dist, parent, owner, sum(work), len(work)

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
    """What is left of the backend registry: ``repro.kernels.check_backend``
    behind the four entry points the repository benchmark still calls
    with ``backend="numpy"``."""

    def test_available_backends_reports_reality(self):
        # the repository benchmark records HAVE_NUMBA; no numba kernel
        # exists, so it must say so
        import repro.kernels as kernels

        assert kernels.HAVE_NUMBA is False
        assert not any("numba" in name for name in kernels.__all__)

    def test_require_backend_strict(self):
        g = _random_float_graph(40, 130, seed=31)
        hs = build_hopset(g, seed=1, backend="numpy", workers=1)
        entry_points = {
            "shortest_paths": lambda b: shortest_paths(g, 0, backend=b),
            "build_hopset": lambda b: build_hopset(g, seed=1, backend=b),
            "weighted_spanner": lambda b: weighted_spanner(g, 3, seed=1, backend=b),
            "DistanceServer": lambda b: DistanceServer(hs, backend=b),
        }
        for call in entry_points.values():
            call(None)
            call("numpy")
            for bad in ("numba", "cuda", "reference"):
                with pytest.raises(ParameterError, match=f"unknown backend '{bad}'"):
                    call(bad)

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_float_path_all_backends(self, kernel):
        g = _random_float_graph(90, 330, seed=37)
        res = shortest_paths(g, 3)
        assert np.allclose(res.dist, dijkstra_scipy(g, 3))


class TestCLIBackendContract:
    def test_explicit_unavailable_backend_errors(self, capsys):
        # --backend is gone: asking for a kernel by name is an argparse
        # error, not a silent run on numpy
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sssp", "--n", "40", "--m", "120", "--backend", "numba"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend numba" in capsys.readouterr().err

    def test_reference_is_not_a_backend(self, capsys):
        # the heapq Dijkstra is a test oracle, not a CLI choice
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sssp", "--n", "40", "--m", "120", "--backend", "reference"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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

