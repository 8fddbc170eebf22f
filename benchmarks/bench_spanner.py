"""Builder shoot-out: level-synchronous batched vs recursive weighted spanner.

Runs the Theorem 3.3 weighted spanner twice on the same seeded workload
— once with the level-synchronous batched builder (one quotient union,
one EST race, and one edge-emission pass per weight level across all
well-separated groups) and once with the sequential per-group oracle
from ``tests/oracles`` — checks they emit the *identical* spanner edge
set, and records the wall-clock ratio.

The workload is a connected G(n, m) at n = 10^5, m = 5*10^5 (the
acceptance scale of ``BENCH_engine.json`` / ``BENCH_hopset.json``) with
log-uniform weights spanning U = 2^1000 — an Appendix-B-style deep
weight hierarchy (cf. :func:`repro.graph.generators.hard_weight_graph`)
where every one of the ~1000 power-of-two buckets is occupied — built
at the sparse end of the stretch/size trade-off (k = 256,
separation = 64, i.e. s = 14 well-separated groups).  That is the
regime the weighted construction's per-level scheduling actually
dominates: the recursive builder dispatches ~10^3 tiny
quotient-clusterings one after another (most of its time is
per-level/per-round Python and numpy-call overhead), while the batched
builder packs each of the ~70 level-rounds into one block-diagonal
race.  Narrow weight ranges at this density are contraction-bound and
benchmark nothing — both strategies then spend their time in the same
vectorized kernels.

Emits ``BENCH_spanner.json`` at the repo root via
:func:`_report.record_json`; the acceptance bar for the batched builder
is >= 3x over the recursive oracle with ``equivalent_edge_sets`` true.
A tiny-scale smoke test in ``tests/test_bench_spanner_smoke.py`` keeps
this module importable and its payload schema honest without the big
run; ``BENCH_SMOKE=1`` (the CI bench-smoke job) runs this very file at
reduced scale, asserting the schema and the strategy-equivalence
invariant but not the speedup bar.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

import _report
from repro.graph import gnm_random_graph, with_random_weights
from repro.spanners import weighted_spanner

_TESTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"
)
sys.path.insert(0, _TESTS_DIR)
try:
    from oracles import weighted_spanner_recursive
finally:
    sys.path.remove(_TESTS_DIR)

BUILDERS = {"batched": weighted_spanner, "recursive": weighted_spanner_recursive}

SMOKE = os.environ.get("BENCH_SMOKE", "") == "1"
if SMOKE:
    BIG_N = 3_000
    BIG_M = 15_000
    BIG_LOG_U = 40
    BIG_K = 8.0
    BIG_SEPARATION = 4.0
else:
    BIG_N = 100_000
    BIG_M = 500_000
    BIG_LOG_U = 1000
    BIG_K = 256.0
    BIG_SEPARATION = 64.0

COLUMNS = [
    "strategy", "n", "m", "seconds", "speedup", "edges", "kept_pct", "groups", "buckets",
]


def run_spanner_bench(
    n: int,
    m: int,
    log_u: int,
    k: float,
    separation: float,
    graph_seed: int = 71,
    build_seed: int = 3,
    repeats: int = 1,
) -> dict:
    """Time both strategies on one seeded workload; return the JSON payload.

    Pure function (no file I/O) so the tier-1 smoke test can exercise
    it at toy scale.
    """
    g = gnm_random_graph(n, m, seed=graph_seed, connected=True)
    gw = with_random_weights(g, 1.0, 2.0**log_u, "loguniform", seed=graph_seed + 1)
    payload = {
        "workload": f"gnm(n={n}, m={m}) loguniform weights U=2^{log_u}",
        "n": gw.n,
        "m": gw.m,
        "build_seed": build_seed,
        "params": {"k": k, "separation": separation, "log_u": log_u},
        "strategies": {},
        "acceptance": {"target_speedup": 3.0},
    }
    built = {}
    for strategy, build in BUILDERS.items():
        best = float("inf")
        sp = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            sp = build(gw, k, seed=build_seed, separation=separation)
            best = min(best, time.perf_counter() - t0)
        built[strategy] = sp
        payload["strategies"][strategy] = {
            "seconds": best,
            "edges": sp.size,
            "kept_fraction": sp.size / max(gw.m, 1),
            "num_groups": int(sp.meta["num_groups"]),
            "num_buckets": int(sp.meta["num_buckets"]),
        }
    speedup = (
        payload["strategies"]["recursive"]["seconds"]
        / max(payload["strategies"]["batched"]["seconds"], 1e-12)
    )
    payload["equivalent_edge_sets"] = bool(
        np.array_equal(built["batched"].edge_ids, built["recursive"].edge_ids)
    )
    payload["acceptance"]["batched_speedup"] = speedup
    payload["acceptance"]["passed"] = bool(
        speedup >= 3.0 and payload["equivalent_edge_sets"]
    )
    return payload


def test_spanner_builder_speedup(benchmark):
    payload = benchmark.pedantic(
        lambda: run_spanner_bench(
            BIG_N, BIG_M, BIG_LOG_U, BIG_K, BIG_SEPARATION, repeats=2
        ),
        rounds=1,
        iterations=1,
    )
    speedup = payload["acceptance"]["batched_speedup"]
    for strategy, row in payload["strategies"].items():
        _report.record(
            "Weighted spanner builder shoot-out",
            COLUMNS,
            strategy=strategy,
            n=payload["n"],
            m=payload["m"],
            seconds=round(row["seconds"], 3),
            speedup=round(speedup, 1) if strategy == "batched" else 1.0,
            edges=row["edges"],
            kept_pct=round(100 * row["kept_fraction"], 1),
            groups=row["num_groups"],
            buckets=row["num_buckets"],
        )
    payload["smoke"] = SMOKE
    path = _report.record_json("BENCH_spanner.json", payload)
    assert payload["equivalent_edge_sets"], "strategies diverged — not a rescheduling"
    assert "batched_speedup" in payload["acceptance"]
    if not SMOKE:
        assert payload["acceptance"]["passed"], (
            f"batched speedup {speedup:.1f}x below the 3x bar ({path})"
        )
