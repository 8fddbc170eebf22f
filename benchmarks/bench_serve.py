"""Serving-tier throughput: batched queries vs singletons.

Measures the serving tier at the ``BENCH_engine.json`` acceptance
scale (RGG, n = 10^5, m ~ 5*10^5): a prebuilt
:class:`repro.serve.DistanceServer` (LRU source-row cache, coalescing
front door) answering exact s-t distance traffic with the bucket engine
on ``G``, next to the paper's h-hop query kernel on the union CSR of
``G ∪ E'``.  Three claims are timed:

* **frontier vs dense** — the frontier-based h-hop kernel
  (:func:`repro.kernels.numpy_kernel.hop_sssp_batch`, called directly
  on :meth:`~repro.hopsets.result.HopsetResult.union_csr` with
  ``h=n``) against the dense per-round relaxation it replaced (the
  reference ``dense_hop_distances`` from ``tests/oracles``), both run
  to convergence on the same union arc set.  Bar: >= 3x.  The exact
  server's engine search on ``G`` is timed next to them, ungated.
* **batched vs singleton** — one coalesced ``query_batch`` of 256
  queries (source pool of 32, the locality a serving tier sees)
  against an uncached server answering the same queries one by one.
  Bar: >= 5x.
* **throughput sweep** — cold- and warm-cache queries/sec at batch
  sizes 1..4096.

Correctness is asserted, not assumed: exact server rows must equal
scipy Dijkstra, and the converged frontier rows must equal both the
dense labels and the exact rows (hopset edges mirror real paths, so
convergence on ``G ∪ E'`` is exact on ``G``).  The h-hop kernel's
stretch at Lemma 4.2's budget is recorded.  Emits ``BENCH_serve.json``
via :func:`_report.record_json`; ``BENCH_SMOKE=1`` runs this file at
toy scale asserting schema, equality, but not the speedup bars.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

import _report
from repro.graph import random_geometric_graph
from repro.hopsets import HopsetParams, build_hopset, suggested_hop_bound
from repro.kernels.numpy_kernel import hop_sssp_batch
from repro.paths.dijkstra import dijkstra_scipy
from repro.serve import DistanceServer
from repro.rng import resolve_rng

_TESTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"
)
sys.path.insert(0, _TESTS_DIR)
try:
    from oracles import arcs_from_graph, combine_arcs, dense_hop_distances
finally:
    sys.path.remove(_TESTS_DIR)

SMOKE = os.environ.get("BENCH_SMOKE", "") == "1"
if SMOKE:
    BIG_N = 4_000
    BIG_RADIUS = 0.0282  # average degree ~10 at n = 4e3
    BATCH_SIZES = [1, 4, 16, 64]
else:
    BIG_N = 100_000
    BIG_RADIUS = 0.0057  # average degree ~10 => m ~ 5e5 at n = 1e5
    BATCH_SIZES = [1, 4, 16, 64, 256, 1024, 4096]

BENCH_PARAMS = HopsetParams(epsilon=0.5, delta=1.1, gamma1=0.15, gamma2=0.2)

TARGET_BATCHED = 5.0
TARGET_FRONTIER = 3.0
REPEATS = 3

COLUMNS = ["batch", "sources", "cold_qps", "warm_qps", "warm_over_cold"]


def _query_workload(n: int, batch: int, rng: np.random.Generator):
    """Serving traffic with source locality: a pool of ``batch // 8``
    hot sources (floor 1), uniform random targets.  Coalescing earns
    its keep exactly when sources repeat."""
    pool = rng.integers(0, n, size=max(1, batch // 8))
    src = pool[rng.integers(0, pool.shape[0], size=batch)]
    dst = rng.integers(0, n, size=batch)
    return np.stack([src, dst], axis=1)


def _time(fn, repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_serve_bench(
    n: int,
    radius: float,
    graph_seed: int = 71,
    build_seed: int = 3,
    params: HopsetParams = BENCH_PARAMS,
    batch_sizes=None,
    seed: int = 2026,
) -> dict:
    """Build one seeded RGG + hopset, run all three measurements.

    Pure function (no file I/O) so the tier-1 smoke test can exercise
    it at toy scale.
    """
    if batch_sizes is None:
        batch_sizes = list(BATCH_SIZES)
    rng = resolve_rng(seed)
    g = random_geometric_graph(n, radius, seed=graph_seed)
    t0 = time.perf_counter()
    hs = build_hopset(g, params, seed=build_seed)
    build_seconds = time.perf_counter() - t0

    payload = {
        "workload": f"rgg(n={n}, radius={radius})",
        "n": g.n,
        "m": g.m,
        "hopset_edges": hs.size,
        "build_seconds": build_seconds,
        "params": {
            "epsilon": params.epsilon,
            "delta": params.delta,
            "gamma1": params.gamma1,
            "gamma2": params.gamma2,
        },
        "throughput": [],
        "acceptance": {
            "target_batched_speedup": TARGET_BATCHED,
            "target_frontier_speedup": TARGET_FRONTIER,
        },
    }

    # -- frontier kernel vs the dense relaxation it replaced ----------
    probe = int(rng.integers(0, g.n))
    arcs = combine_arcs(arcs_from_graph(g), hs.eu, hs.ev, hs.ew)
    # compiled once before timing: the union CSR is memoized per
    # hopset, so a query pays only the search
    union = hs.union_csr()
    one_run = np.array([0, 1], dtype=np.int64)

    def hop_row(s: int, h: int) -> np.ndarray:
        return hop_sssp_batch(*union, g.n, np.array([s]), one_run, h)[0]

    # best of REPEATS: single shots of these seconds-long searches
    # jitter by +-20% on a shared box, more than the bar's margin
    t_dense = _time(
        lambda: dense_hop_distances(arcs, np.array([probe]), h=g.n), REPEATS
    )
    dense_dist, _, _ = dense_hop_distances(arcs, np.array([probe]), h=g.n)
    # h=n runs the hop kernel to convergence on the union
    t_frontier = _time(lambda: hop_row(probe, g.n), REPEATS)
    frontier_dist = hop_row(probe, g.n)
    exact_srv = DistanceServer(hs, cache_rows=0)
    t_exact = _time(lambda: exact_srv.distance_row(probe), REPEATS)
    labels_equal = bool(
        np.allclose(dense_dist, frontier_dist, equal_nan=True)
        and np.allclose(exact_srv.distance_row(probe), frontier_dist)
    )
    frontier_speedup = t_dense / max(t_frontier, 1e-12)
    payload["frontier_vs_dense"] = {
        "dense_seconds": t_dense,
        "frontier_seconds": t_frontier,
        "exact_engine_seconds": t_exact,
        "labels_equal": labels_equal,
    }

    # -- batched coalescing vs uncached singletons at batch 256 -------
    bs = 256 if not SMOKE else 32
    pairs = _query_workload(g.n, bs, rng)
    t_batched = _time(lambda: DistanceServer(hs).query_batch(pairs))
    single_srv = DistanceServer(hs, cache_rows=0)
    t_single = _time(
        lambda: [single_srv.query(int(s), int(t)) for s, t in pairs]
    )
    batched_speedup = t_single / max(t_batched, 1e-12)
    payload["batched_vs_singleton"] = {
        "batch": bs,
        "batched_seconds": t_batched,
        "singleton_seconds": t_single,
    }

    # -- throughput sweep: cold vs warm cache -------------------------
    for b in batch_sizes:
        pairs = _query_workload(g.n, b, rng)
        pool = int(np.unique(pairs[:, 0]).shape[0])
        srv = DistanceServer(hs, cache_rows=max(128, pool))
        t_cold = _time(lambda: srv.query_batch(pairs))
        t_warm = _time(lambda: srv.query_batch(pairs))
        payload["throughput"].append(
            {
                "batch": b,
                "sources": pool,
                "cold_qps": b / max(t_cold, 1e-12),
                "warm_qps": b / max(t_warm, 1e-12),
            }
        )

    # -- correctness: exact serving equals Dijkstra on G --------------
    check_srv = DistanceServer(hs)
    check_sources = rng.integers(0, g.n, size=3)
    correct = all(
        np.allclose(check_srv.distance_row(int(s)), dijkstra_scipy(g, int(s)))
        for s in check_sources
    )
    # recorded, not asserted: the hopset's per-pair guarantee is
    # probabilistic, so h-limited stretch is diagnostics only
    h_budget = suggested_hop_bound(hs, 1.0)
    s0 = int(check_sources[0])
    exact_row = dijkstra_scipy(g, s0)
    lim_row = hop_row(s0, h_budget)
    finite = np.isfinite(lim_row) & (exact_row > 0)
    payload["h_limited"] = {
        "h": int(h_budget),
        "reached_fraction": float(np.isfinite(lim_row).mean()),
        "max_stretch": float((lim_row[finite] / exact_row[finite]).max())
        if finite.any()
        else float("nan"),
    }

    acc = payload["acceptance"]
    acc["batched_speedup"] = batched_speedup
    acc["frontier_vs_dense_speedup"] = frontier_speedup
    acc["correct"] = bool(correct and labels_equal)
    acc["passed"] = bool(
        acc["correct"]
        and batched_speedup >= TARGET_BATCHED
        and frontier_speedup >= TARGET_FRONTIER
    )
    return payload


def test_serve_throughput(benchmark):
    payload = benchmark.pedantic(
        lambda: run_serve_bench(BIG_N, BIG_RADIUS),
        rounds=1,
        iterations=1,
    )
    for row in payload["throughput"]:
        _report.record(
            "Serving tier throughput",
            COLUMNS,
            batch=row["batch"],
            sources=row["sources"],
            cold_qps=round(row["cold_qps"], 1),
            warm_qps=round(row["warm_qps"], 1),
            warm_over_cold=round(row["warm_qps"] / max(row["cold_qps"], 1e-12), 1),
        )
    payload["smoke"] = SMOKE
    path = _report.record_json("BENCH_serve.json", payload)
    acc = payload["acceptance"]
    assert acc["correct"], f"server rows diverged from Dijkstra ({path})"
    assert "batched_speedup" in acc and "frontier_vs_dense_speedup" in acc
    if not SMOKE:
        assert acc["passed"], (
            f"batched {acc['batched_speedup']:.1f}x (bar {TARGET_BATCHED}) / "
            f"frontier {acc['frontier_vs_dense_speedup']:.1f}x "
            f"(bar {TARGET_FRONTIER}) ({path})"
        )
