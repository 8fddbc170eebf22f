"""Builder shoot-out: level-synchronous batched vs recursive hopsets.

Runs Algorithm 4 twice on the same seeded workload — once with the
level-synchronous batched builder (one EST race + one batched
center-search pass per recursion level) and once with the depth-first
recursive oracle from ``tests/oracles`` — checks they emit the
*identical* hopset edge set, and records the wall-clock ratio.

The workload is a random geometric graph at n = 10^5, m ~ 5*10^5 (the
acceptance scale of ``BENCH_engine.json``): RGGs have Theta(1/radius)
diameter, so the beta schedule actually produces multi-level recursion
trees with thousands of subproblems — the regime hopsets exist for,
and the one where per-subproblem Python dispatch dominates the
recursive builder.  Erdos–Renyi graphs at this density have diameter
~6 and collapse to a single star; they benchmark nothing.

Emits ``BENCH_hopset.json`` at the repo root via
:func:`_report.record_json`; the acceptance bar for the batched
builder is >= 5x over the recursive oracle.  A tiny-scale smoke test
in ``tests/test_bench_hopset_smoke.py`` keeps this module importable
and its payload schema honest without the big run; ``BENCH_SMOKE=1``
(the CI bench-smoke job) runs this very file at reduced scale,
asserting the schema and the strategy-equivalence invariant but not
the speedup bar.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

import _report
from repro.graph import random_geometric_graph
from repro.hopsets import HopsetParams, build_hopset

_TESTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"
)
sys.path.insert(0, _TESTS_DIR)
try:
    from oracles import build_hopset_recursive
finally:
    sys.path.remove(_TESTS_DIR)

BUILDERS = {"batched": build_hopset, "recursive": build_hopset_recursive}

SMOKE = os.environ.get("BENCH_SMOKE", "") == "1"
if SMOKE:
    BIG_N = 4_000
    BIG_RADIUS = 0.0282  # average degree ~10 at n = 4e3
else:
    BIG_N = 100_000
    BIG_RADIUS = 0.0057  # average degree ~10 => m ~ 5e5 at n = 1e5

# Theorem 4.4's delta = 1.1 example (the HopsetParams default shrink
# exponent) with a top-level beta ~ n^-0.2 sized to the RGG diameter
BENCH_PARAMS = HopsetParams(epsilon=0.5, delta=1.1, gamma1=0.15, gamma2=0.2)

COLUMNS = [
    "strategy", "n", "m", "seconds", "speedup", "edges", "star", "clique", "levels",
]


def _canonical(hs):
    lo = np.minimum(hs.eu, hs.ev)
    hi = np.maximum(hs.eu, hs.ev)
    order = np.lexsort((hs.kind, hs.ew, hi, lo))
    return lo[order], hi[order], hs.ew[order], hs.kind[order]


def _same_edge_set(a, b) -> bool:
    if a.size != b.size:
        return False
    ca, cb = _canonical(a), _canonical(b)
    return all(np.allclose(x, y) for x, y in zip(ca, cb))


def run_hopset_bench(
    n: int,
    radius: float,
    graph_seed: int = 71,
    build_seed: int = 3,
    params: HopsetParams = BENCH_PARAMS,
    repeats: int = 1,
) -> dict:
    """Time both strategies on one seeded RGG; return the JSON payload.

    Pure function (no file I/O) so the tier-1 smoke test can exercise
    it at toy scale.
    """
    g = random_geometric_graph(n, radius, seed=graph_seed)
    payload = {
        "workload": f"rgg(n={n}, radius={radius})",
        "n": g.n,
        "m": g.m,
        "build_seed": build_seed,
        "params": {
            "epsilon": params.epsilon,
            "delta": params.delta,
            "gamma1": params.gamma1,
            "gamma2": params.gamma2,
        },
        "strategies": {},
        "acceptance": {"target_speedup": 5.0},
    }
    built = {}
    for strategy, build in BUILDERS.items():
        best = float("inf")
        hs = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            hs = build(g, params, seed=build_seed)
            best = min(best, time.perf_counter() - t0)
        built[strategy] = hs
        payload["strategies"][strategy] = {
            "seconds": best,
            "edges": hs.size,
            "star_edges": hs.star_count,
            "clique_edges": hs.clique_count,
            "levels": len(hs.levels),
        }
    speedup = (
        payload["strategies"]["recursive"]["seconds"]
        / max(payload["strategies"]["batched"]["seconds"], 1e-12)
    )
    payload["equivalent_edge_sets"] = _same_edge_set(
        built["batched"], built["recursive"]
    )
    payload["acceptance"]["batched_speedup"] = speedup
    payload["acceptance"]["passed"] = bool(
        speedup >= 5.0 and payload["equivalent_edge_sets"]
    )
    return payload


def test_hopset_builder_speedup(benchmark):
    payload = benchmark.pedantic(
        lambda: run_hopset_bench(BIG_N, BIG_RADIUS, repeats=2),
        rounds=1,
        iterations=1,
    )
    speedup = payload["acceptance"]["batched_speedup"]
    for strategy, row in payload["strategies"].items():
        _report.record(
            "Hopset builder shoot-out",
            COLUMNS,
            strategy=strategy,
            n=payload["n"],
            m=payload["m"],
            seconds=round(row["seconds"], 3),
            speedup=round(speedup, 1) if strategy == "batched" else 1.0,
            edges=row["edges"],
            star=row["star_edges"],
            clique=row["clique_edges"],
            levels=row["levels"],
        )
    payload["smoke"] = SMOKE
    path = _report.record_json("BENCH_hopset.json", payload)
    assert payload["equivalent_edge_sets"], "strategies diverged — not a rescheduling"
    assert "batched_speedup" in payload["acceptance"]
    if not SMOKE:
        assert payload["acceptance"]["passed"], (
            f"batched speedup {speedup:.1f}x below the 5x bar ({path})"
        )
