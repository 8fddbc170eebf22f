"""Backend shoot-out for the bucket shortest-path engine.

Compares the vectorized numpy kernels with the pure-Python heapq
Dijkstra — the sequential baseline,
``dijkstra_reference`` from ``tests/oracles`` — on the workloads the
engine actually serves (single-source SSSP and the all-source EST race)
in *both* weight regimes, at the acceptance scale of n = 10^5,
m = 5*10^5:

``int_dial``
    Small integer weights (the Section 5 "weighted parallel BFS"
    regime that Lemma 5.2 rounding produces): exact Dial buckets,
    ``delta = 1``.  Acceptance bar: ``numpy >= 5x reference``
    (``acceptance.numpy_min_speedup``).
``float_delta_stepping``
    Real-valued weights through the light/heavy split kernels (true
    delta-stepping, no quantization detour).  Acceptance bar:
    ``numpy >= 3x reference`` (``acceptance.float_min_speedup``).

scipy's compiled Dijkstra (``scipy.sparse.csgraph.dijkstra``) is timed
beside them on the single-source workload of both graphs: its row
records ``numpy_vs_scipy``, numpy seconds over scipy seconds (below 1
means the numpy engine is faster), with no floor yet.  Each section's
``batch_8_sources`` row times ``shortest_paths_batch`` on 8 sources
(one ``(8, n)`` distance matrix) against scipy's
``dijkstra(indices=<the same 8>)`` and records ``batch_vs_scipy`` the
same way, also with no floor.

Emits a machine-readable ``BENCH_engine.json`` at the repo root via
:func:`_report.record_json` (which also records the machine: cores
and library versions) so future PRs have a perf trajectory to regress
against.

Set ``BENCH_SMOKE=1`` to run the same code at toy scale: the payload
schema and oracle equivalence are still asserted (CI keeps the script
honest) but the speedup floors are not — smoke scale says nothing
about them.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
from scipy.sparse.csgraph import dijkstra as sp_dijkstra

import _report
from repro.graph import gnm_random_graph, with_random_weights
from repro.paths import shortest_paths, shortest_paths_batch
from repro.rng import resolve_rng

_TESTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"
)
sys.path.insert(0, _TESTS_DIR)
try:
    from oracles import dijkstra_reference
finally:
    sys.path.remove(_TESTS_DIR)

COLUMNS = [
    "section", "workload", "n", "m", "backend", "seconds",
    "speedup_vs_reference", "numpy_vs_scipy", "batch_vs_scipy", "buckets",
    "rounds",
]

SMOKE = os.environ.get("BENCH_SMOKE", "") == "1"
BIG_N, BIG_M = (4_000, 20_000) if SMOKE else (100_000, 500_000)

INT_TARGET = 5.0
FLOAT_TARGET = 3.0
BATCH_SOURCES = 8


def _graphs():
    base = gnm_random_graph(BIG_N, BIG_M, seed=71, connected=True)
    g_float = with_random_weights(base, 1.0, 100.0, "uniform", seed=72)
    g_int = with_random_weights(base, 1, 8, "integer", seed=72)
    return g_int, g_float


def _best_of(repeats, fn, *args, **kwargs):
    """Best wall time of ``repeats`` calls of ``fn(*args, **kwargs)``,
    and the last call's result."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, out


def run_engine_bench(repeats: int = 2) -> dict:
    """Time numpy, the heapq reference and scipy on both weight
    regimes; return the payload.

    Pure function (no file I/O) so the smoke path can exercise it.
    """
    g_int, g_float = _graphs()
    rng = resolve_rng(73)
    est_offsets = rng.exponential(5.0, g_float.n)
    batch_srcs = rng.choice(g_float.n, size=min(BATCH_SOURCES, g_float.n), replace=False)
    sections = {
        "int_dial": {
            "graph": g_int,
            "weights_desc": "integer[1,8]",
            "weights": g_int.weights.astype(np.int64),
            "workloads": {
                "sssp_single_source": (np.asarray([0]), np.zeros(1, np.int64)),
                "est_all_source_race": (
                    np.arange(g_int.n),
                    np.floor(est_offsets).astype(np.int64),
                ),
            },
        },
        "float_delta_stepping": {
            "graph": g_float,
            "weights_desc": "uniform[1,100]",
            "weights": None,  # the graph's own float64 weights
            "workloads": {
                "sssp_single_source": (np.asarray([0]), np.zeros(1)),
                "est_all_source_race": (np.arange(g_float.n), est_offsets),
            },
        },
    }

    payload = {
        "n": g_float.n,
        "m": g_float.m,
        "smoke": SMOKE,
        "sections": {},
        "acceptance": {
            "target_speedup": INT_TARGET,
            "float_target_speedup": FLOAT_TARGET,
        },
    }
    for sec_name, sec in sections.items():
        g = sec["graph"]
        w = sec["weights"]
        out = {"weights": sec["weights_desc"], "backends": {}}
        payload["sections"][sec_name] = out
        row = dict(section=sec_name, n=g.n, m=g.m)
        ref_dists = {}
        for wl_name, (srcs, offs) in sec["workloads"].items():
            ref_t, (ref_dist, _, _) = _best_of(
                repeats, dijkstra_reference, g, srcs, offsets=offs, weights=w
            )
            ref_dists[wl_name] = ref_dist
            out["backends"].setdefault("reference", {})[wl_name] = {
                "seconds": ref_t,
                "speedup_vs_reference": 1.0,
            }
            _report.record(
                "Engine backend shoot-out", COLUMNS, **row, workload=wl_name,
                backend="reference", seconds=round(ref_t, 3),
                speedup_vs_reference=1.0,
            )
            sec_time, res = _best_of(
                repeats, shortest_paths, g, srcs, offsets=offs, weights=w
            )
            assert np.allclose(
                np.asarray(res.dist, dtype=np.float64), ref_dist
            ), f"{sec_name}/{wl_name}/numpy diverged from the oracle"
            speedup = ref_t / max(sec_time, 1e-12)
            out["backends"].setdefault("numpy", {})[wl_name] = {
                "seconds": sec_time,
                "speedup_vs_reference": speedup,
                "buckets": res.buckets,
                "relax_rounds": res.relax_rounds,
                "arcs_relaxed": res.arcs_relaxed,
            }
            _report.record(
                "Engine backend shoot-out", COLUMNS, **row, workload=wl_name,
                backend="numpy", seconds=round(sec_time, 3),
                speedup_vs_reference=round(speedup, 1),
                buckets=res.buckets, rounds=res.relax_rounds,
            )

        # the external compiled baseline, single source; the CSR matrix
        # is built once, untimed, as the suite does
        srcs, _ = sec["workloads"]["sssp_single_source"]
        csr = g.to_scipy()
        sp_t, sp_dist = _best_of(
            repeats, sp_dijkstra, csr, directed=False, indices=int(srcs[0])
        )
        assert np.allclose(sp_dist, ref_dists["sssp_single_source"])
        numpy_t = out["backends"]["numpy"]["sssp_single_source"]["seconds"]
        ratio = numpy_t / max(sp_t, 1e-12)
        out["backends"]["scipy"] = {
            "sssp_single_source": {"seconds": sp_t, "numpy_vs_scipy": ratio}
        }
        _report.record(
            "Engine backend shoot-out", COLUMNS, **row,
            workload="sssp_single_source", backend="scipy",
            seconds=round(sp_t, 3), numpy_vs_scipy=round(ratio, 2),
        )

        # the multi-source batch: one (8, n) matrix against scipy's
        # multi-source call on the same sources
        batch_t, bres = _best_of(
            repeats, shortest_paths_batch, g, batch_srcs, weights=w
        )
        spb_t, spb_dist = _best_of(
            repeats, sp_dijkstra, csr, directed=False, indices=batch_srcs
        )
        assert np.allclose(np.asarray(bres.dist, dtype=np.float64), spb_dist), (
            f"{sec_name}/batch diverged from scipy"
        )
        batch_ratio = batch_t / max(spb_t, 1e-12)
        out["batch_8_sources"] = {
            "sources": batch_srcs.tolist(),
            "numpy_seconds": batch_t,
            "scipy_seconds": spb_t,
            "batch_vs_scipy": batch_ratio,
            "buckets": bres.buckets,
            "relax_rounds": bres.relax_rounds,
            "arcs_relaxed": bres.arcs_relaxed,
        }
        for backend, secs in (("numpy", batch_t), ("scipy", spb_t)):
            _report.record(
                "Engine backend shoot-out", COLUMNS, **row,
                workload="batch_8_sources", backend=backend,
                seconds=round(secs, 3), batch_vs_scipy=round(batch_ratio, 2),
            )

    int_speedups = [
        w["speedup_vs_reference"]
        for w in payload["sections"]["int_dial"]["backends"]["numpy"].values()
    ]
    float_speedups = [
        w["speedup_vs_reference"]
        for w in payload["sections"]["float_delta_stepping"]["backends"]["numpy"].values()
    ]
    acc = payload["acceptance"]
    acc["numpy_min_speedup"] = min(int_speedups)
    acc["float_min_speedup"] = min(float_speedups)
    acc["passed"] = bool(
        min(int_speedups) >= INT_TARGET and min(float_speedups) >= FLOAT_TARGET
    )
    return payload


def test_engine_backends_big_graph(benchmark):
    payload = benchmark.pedantic(run_engine_bench, rounds=1, iterations=1)
    path = _report.record_json("BENCH_engine.json", payload)
    acc = payload["acceptance"]
    # schema keys must exist in every mode (bench-smoke CI contract)
    for key in ("numpy_min_speedup", "float_min_speedup", "passed"):
        assert key in acc, key
    if not SMOKE:
        assert acc["numpy_min_speedup"] >= INT_TARGET, (
            f"Dial speedup {acc['numpy_min_speedup']:.1f}x below "
            f"{INT_TARGET}x bar ({path})"
        )
        assert acc["float_min_speedup"] >= FLOAT_TARGET, (
            f"float split-kernel speedup {acc['float_min_speedup']:.1f}x below "
            f"{FLOAT_TARGET}x bar ({path})"
        )


def test_engine_ledger_matches_paper_accounting(benchmark):
    """Dial mode: tracker rounds == distance levels, work == arcs."""
    from repro.pram import PramTracker

    n, m = (5_000, 25_000) if SMOKE else (20_000, 100_000)

    def run():
        g = gnm_random_graph(n, m, seed=74, connected=True)
        g = with_random_weights(g, 1, 8, "integer", seed=75)
        w = g.weights.astype(np.int64)
        t = PramTracker(n=g.n, depth_per_round=1)
        res = shortest_paths(g, 0, offsets=np.array([0]), weights=w, tracker=t)
        return g, t, res

    g, t, res = benchmark.pedantic(run, rounds=1, iterations=1)
    assert res.relax_rounds == res.buckets  # Dial: one round per level
    assert t.rounds == res.relax_rounds
    assert t.work == res.arcs_relaxed
    _report.record(
        "Engine PRAM ledger (Dial mode)",
        ["n", "m", "levels", "work", "work_per_arc"],
        n=g.n, m=g.m, levels=res.buckets, work=t.work,
        work_per_arc=round(t.work / g.num_arcs, 2),
    )
