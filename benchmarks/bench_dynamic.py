"""Dynamic maintenance under churn: incremental repair vs full rebuild.

The dynamic tier (:mod:`repro.dynamic`) exists to avoid rebuilding a
hopset or spanner from scratch on every edge-update batch.  This bench
times exactly that trade at the ``BENCH_engine.json`` acceptance scale
(RGG, n = 10^5, m ~ 5*10^5) under sustained churn — ``BATCHES`` update
batches of ``BATCH_EDGES`` deletions + ``BATCH_EDGES`` insertions each:

* **hopset + serving tier** — a :class:`repro.serve.DistanceServer`
  with warm cache rows advanced through
  :meth:`~repro.serve.DistanceServer.apply_updates` (block-local repair
  + stale-row eviction), against the from-scratch pipeline the tier
  replaces: apply the batch to the CSR, ``build_hopset`` on the new
  graph, stand up a fresh server.  Bar: >= 3x.
* **spanner** — a :class:`repro.dynamic.DynamicSpanner`
  (validate-and-repair with cheap damage-row certificates) against
  apply + full seeded rebuild.  EST spanner construction is itself
  linear-time, so the speedup is recorded as trajectory data rather
  than gated — the floor lives on the hopset pipeline the paper's
  serving story needs.

Correctness is asserted *every batch*, not sampled at the end:
Definition 2.4 edge validity on the repaired hopset (exhaustive at
smoke scale, a seeded source sample at acceptance scale —
``verify_edge_weights`` is O(#sources) Dijkstras), exact server
rows equal to scipy Dijkstra on the updated graph, cache eviction
exactness (a warm row is either invalidated or still exact), and the
certified stretch bound on the repaired spanner.  Emits
``BENCH_dynamic.json`` via :func:`_report.record_json`; ``BENCH_SMOKE=1``
runs at toy scale asserting schema and guarantees but not the bars.
"""

from __future__ import annotations

import os
import time

import numpy as np

import _report
from repro.dynamic import DynamicSpanner, UpdateBatch, apply_batch
from repro.dynamic.spanner import _build_spanner
from repro.graph import random_geometric_graph
from repro.hopsets import HopsetParams, build_hopset
from repro.paths.dijkstra import dijkstra_scipy
from repro.rng import resolve_rng
from repro.serve import DistanceServer
from repro.spanners.verify import verify_spanner

SMOKE = os.environ.get("BENCH_SMOKE", "") == "1"
if SMOKE:
    BIG_N = 4_000
    BIG_RADIUS = 0.0282  # average degree ~10 at n = 4e3
    BATCHES = 3
    BATCH_EDGES = 6
else:
    BIG_N = 100_000
    BIG_RADIUS = 0.0057  # average degree ~10 => m ~ 5e5 at n = 1e5
    BATCHES = 5
    BATCH_EDGES = 10

# small gamma2 => large level-0 split rate => many small blocks, which
# is what makes block-local repair beat the full rebuild under churn
BENCH_PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.02, gamma2=0.05)

SPANNER_K = 3.0
TARGET_HOPSET = 3.0
WARM_ROWS = 8 if SMOKE else 4
WARM_CHECKS = 2 if SMOKE else 1
STRETCH_SAMPLE = 200 if SMOKE else 30
DEF24_SAMPLE = 8

COLUMNS = ["structure", "batch", "incremental_ms", "rebuild_ms", "speedup"]


def _verify_def24(hs, rng) -> None:
    """Definition 2.4 item 2 on the live hopset: exhaustive at smoke
    scale, a seeded source sample at acceptance scale (one Dijkstra
    row per sampled source; a full sweep is O(#sources) rows)."""
    if SMOKE or hs.size == 0:
        hs.verify_edge_weights()
        return
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    srcs = np.unique(hs.eu)
    pick = np.sort(rng.choice(srcs, size=min(DEF24_SAMPLE, srcs.size),
                              replace=False))
    rows = sp_dijkstra(hs.graph.to_scipy(), directed=False, indices=pick)
    sel = np.isin(hs.eu, pick)
    idx = np.searchsorted(pick, hs.eu[sel])
    true_d = rows[idx, hs.ev[sel]]
    slack = hs.ew[sel] - true_d
    assert not (slack < -1e-9 * np.maximum(1.0, true_d)).any(), (
        "sampled hopset edge lighter than the true distance"
    )


def _churn_batch(g, rng, b: int) -> UpdateBatch:
    """``b`` deletions of live edges + ``b`` unit-weight insertions."""
    eids = rng.choice(g.m, size=min(b, g.m), replace=False)
    deletes = [(int(g.edge_u[e]), int(g.edge_v[e])) for e in eids]
    inserts = []
    while len(inserts) < b:
        u, v = (int(x) for x in rng.integers(0, g.n, size=2))
        if u != v:
            inserts.append((u, v, 1.0))
    return UpdateBatch.from_tuples(inserts, deletes)


def run_dynamic_bench(
    n: int,
    radius: float,
    graph_seed: int = 71,
    build_seed: int = 3,
    params: HopsetParams = BENCH_PARAMS,
    batches: int = BATCHES,
    batch_edges: int = BATCH_EDGES,
    seed: int = 2026,
) -> dict:
    """Build one seeded RGG, churn it, time repair vs rebuild.

    Pure function (no file I/O) so the tier-1 smoke test can exercise
    it at toy scale.
    """
    g = random_geometric_graph(n, radius, seed=graph_seed)

    payload = {
        "workload": f"rgg(n={n}, radius={radius})",
        "n": g.n,
        "m": g.m,
        "batches": batches,
        "batch_edges": batch_edges,
        "params": {
            "epsilon": params.epsilon,
            "delta": params.delta,
            "gamma1": params.gamma1,
            "gamma2": params.gamma2,
        },
        "acceptance": {"target_hopset_speedup": TARGET_HOPSET},
    }
    guarantees = True

    # -- hopset + serving tier ---------------------------------------
    t0 = time.perf_counter()
    hs = build_hopset(g, params, seed=build_seed, record_structure=True)
    build_seconds = time.perf_counter() - t0
    server = DistanceServer(hs, cache_rows=max(64, WARM_ROWS))
    rng = resolve_rng(seed)
    warm = [int(s) for s in rng.choice(g.n, size=WARM_ROWS, replace=False)]
    for s in warm:
        server.distance_row(s)

    hop = {
        "build_seconds": build_seconds,
        "hopset_edges": hs.size,
        "blocks": hs.structure.num_blocks if hs.structure else 0,
        "per_batch": [],
    }
    t_inc_total = t_full_total = 0.0
    churn_rng = resolve_rng(seed + 1)
    for i in range(batches):
        batch = _churn_batch(server.hopset.graph, churn_rng, batch_edges)
        g_prev = server.hopset.graph

        t0 = time.perf_counter()
        info = server.apply_updates(batch)
        t_inc = time.perf_counter() - t0

        # from-scratch pipeline on the same batch: apply + rebuild +
        # fresh server (exact servers compile no union CSR on either path)
        t0 = time.perf_counter()
        ar = apply_batch(g_prev, batch)
        hs_full = build_hopset(
            ar.graph, params, seed=build_seed, record_structure=True
        )
        DistanceServer(hs_full, cache_rows=max(64, WARM_ROWS))
        t_full = time.perf_counter() - t0

        # guarantees, every batch
        _verify_def24(server.hopset, churn_rng)
        probe = int(churn_rng.integers(0, g.n))
        row_ok = bool(
            np.allclose(
                server.distance_row(probe),
                dijkstra_scipy(server.hopset.graph, probe),
            )
        )
        still_warm = [s for s in warm if s in server.cached_sources()]
        still_warm = still_warm[:WARM_CHECKS]
        warm_ok = all(
            np.allclose(
                server.distance_row(s),
                dijkstra_scipy(server.hopset.graph, s),
            )
            for s in still_warm
        )
        guarantees = guarantees and row_ok and warm_ok

        t_inc_total += t_inc
        t_full_total += t_full
        hop["per_batch"].append(
            {
                "incremental_seconds": t_inc,
                "rebuild_seconds": t_full,
                "dirty_blocks": info["dirty_blocks"],
                "rebuilt_blocks": info["rebuilt_blocks"],
                "kept_edges": info["kept_edges"],
                "invalidated_rows": info["invalidated_rows"],
                "row_exact": row_ok,
            }
        )
    hop["incremental_seconds"] = t_inc_total
    hop["rebuild_seconds"] = t_full_total
    payload["hopset"] = hop
    hopset_speedup = t_full_total / max(t_inc_total, 1e-12)

    # -- spanner ------------------------------------------------------
    t0 = time.perf_counter()
    dyn = DynamicSpanner.build(g, k=SPANNER_K, seed=seed + 2)
    span = {
        "build_seconds": time.perf_counter() - t0,
        "spanner_edges": dyn.result.size,
        "stretch_bound": dyn.result.stretch_bound,
        "per_batch": [],
    }
    t_inc_total = t_full_total = 0.0
    churn_rng = resolve_rng(seed + 3)
    for i in range(batches):
        batch = _churn_batch(dyn.graph, churn_rng, batch_edges)
        g_prev = dyn.graph

        t0 = time.perf_counter()
        info = dyn.apply(batch)
        t_inc = time.perf_counter() - t0

        t0 = time.perf_counter()
        ar = apply_batch(g_prev, batch)
        _build_spanner(ar.graph, SPANNER_K, seed + 2, dyn.method, None, 1)
        t_full = time.perf_counter() - t0

        worst = verify_spanner(
            dyn.graph, dyn.result, sample_edges=STRETCH_SAMPLE, seed=seed + i
        )
        t_inc_total += t_inc
        t_full_total += t_full
        span["per_batch"].append(
            {
                "incremental_seconds": t_inc,
                "rebuild_seconds": t_full,
                "candidates": info["candidates"],
                "readded": info["readded"],
                "rebuilt": info["rebuilt"],
                "sampled_stretch": worst,
            }
        )
    span["incremental_seconds"] = t_inc_total
    span["rebuild_seconds"] = t_full_total
    payload["spanner"] = span
    spanner_speedup = t_full_total / max(t_inc_total, 1e-12)

    acc = payload["acceptance"]
    acc["hopset_speedup"] = hopset_speedup
    acc["spanner_speedup"] = spanner_speedup
    acc["guarantees_every_batch"] = bool(guarantees)
    acc["passed"] = bool(guarantees and hopset_speedup >= TARGET_HOPSET)
    return payload


def test_dynamic_churn(benchmark):
    payload = benchmark.pedantic(
        lambda: run_dynamic_bench(BIG_N, BIG_RADIUS),
        rounds=1,
        iterations=1,
    )
    for name in ("hopset", "spanner"):
        for i, row in enumerate(payload[name]["per_batch"]):
            _report.record(
                "Dynamic churn repair vs rebuild",
                COLUMNS,
                structure=name,
                batch=i,
                incremental_ms=round(row["incremental_seconds"] * 1e3, 1),
                rebuild_ms=round(row["rebuild_seconds"] * 1e3, 1),
                speedup=round(
                    row["rebuild_seconds"]
                    / max(row["incremental_seconds"], 1e-12),
                    1,
                ),
            )
    payload["smoke"] = SMOKE
    path = _report.record_json("BENCH_dynamic.json", payload)
    acc = payload["acceptance"]
    assert acc["guarantees_every_batch"], (
        f"a repaired structure broke its guarantee ({path})"
    )
    assert "hopset_speedup" in acc and "spanner_speedup" in acc
    if not SMOKE:
        assert acc["passed"], (
            f"hopset churn {acc['hopset_speedup']:.1f}x "
            f"(bar {TARGET_HOPSET}) ({path})"
        )
