"""Section 2 claims: processor-count speedups and the distributed port.

1. The paper argues (Section 2 / 2.3) that with few processors the
   *work* determines speedup, and that "if eps is a constant,
   O(log^(3+a) n) processors are sufficient for parallel speedups" for
   the new hopset, versus Omega(n^a) for Cohen's.  We project measured
   ledgers through Brent's law and report the processors needed for
   2x / 10x speedups per construction.
2. Section 2.2: the unweighted spanner ports to the synchronized
   distributed model.  We measure rounds and messages versus k and
   against the O(k log n) round budget.
3. Delta-stepping comparison: the practical parallel SSSP baseline's
   round count versus the hopset query.
"""

from __future__ import annotations

import numpy as np
import pytest

import _report
from repro.distributed import distributed_unweighted_spanner
from repro.graph import with_random_weights
from repro.hopsets import HopsetParams, build_hopset, ks97_hopset, suggested_hop_bound
from repro.hopsets.query import exact_distance
from repro.paths import hop_limited_distances
from repro.paths.delta_stepping import delta_stepping
from repro.pram import PramTracker, processors_for_speedup

PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5)


def test_speedup_processor_requirements(benchmark, bench_grid):
    """Brent projections: processors needed for 2x and 10x speedups."""
    g = bench_grid

    def run():
        rows = []
        t1 = PramTracker(n=g.n)
        build_hopset(g, PARAMS, seed=111, tracker=t1)
        rows.append(("EST hopset (new)", t1.work, t1.depth))
        t2 = PramTracker(n=g.n)
        ks97_hopset(g, seed=111, tracker=t2)
        rows.append(("KS97 hubs", t2.work, t2.depth))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for label, work, depth in rows:
        p2 = processors_for_speedup(work, depth, 2.0)
        p10 = processors_for_speedup(work, depth, 10.0)
        _report.record(
            "Section 2 processor requirements (Brent)",
            ["algorithm", "work", "depth", "p_for_2x", "p_for_10x", "ceiling_work/depth"],
            algorithm=label,
            work=work,
            depth=depth,
            p_for_2x=p2,
            p_for_10x=p10,
            **{"ceiling_work/depth": work // max(depth, 1)},
        )
    # both constructions parallelize at trivially small processor counts
    (_, w1, d1), (_, w2, d2) = rows
    assert processors_for_speedup(w1, d1, 2.0) <= 16
    assert processors_for_speedup(w2, d2, 2.0) <= 16


@pytest.mark.parametrize("k", [2, 4, 8])
def test_distributed_spanner_rounds(benchmark, bench_gnm, k):
    g = bench_gnm

    def run():
        return distributed_unweighted_spanner(g, k, seed=112 + k)

    sp, net = benchmark.pedantic(run, rounds=1, iterations=1)
    budget = 8 * k * np.log(g.n)  # O(k log n) round envelope
    _report.record(
        "Section 2.2 distributed spanner",
        ["k", "rounds", "budget_OklogN", "messages", "messages_per_edge", "size"],
        k=k,
        rounds=net.rounds,
        budget_OklogN=budget,
        messages=net.total_messages,
        messages_per_edge=net.total_messages / max(g.m, 1),
        size=sp.size,
    )
    assert net.rounds <= budget
    # CONGEST-style traffic: O(1) broadcasts per node across both phases
    assert net.total_messages <= 6 * 2 * g.m + 4 * g.n


def test_delta_stepping_vs_hopset_rounds(benchmark, bench_grid):
    """Weighted mesh: delta-stepping phases vs hopset query rounds."""
    g = with_random_weights(bench_grid, 1, 8, "integer", seed=113)
    s, t = 0, g.n - 1

    def run():
        d_true = exact_distance(g, s, t)
        t_ds = PramTracker(n=g.n, depth_per_round=1)
        dist_ds, phases = delta_stepping(g, s, tracker=t_ds)
        hs = build_hopset(g, PARAMS, seed=114)
        budget = min(suggested_hop_bound(hs, d_true), g.n)
        t_hs = PramTracker(n=g.n, depth_per_round=1)
        dist_hs, hops, _ = hop_limited_distances(hs.union_csr(), np.asarray([s]), budget, t_hs)
        return d_true, float(dist_ds[t]), t_ds.rounds, float(dist_hs[t]), int(hops[t])

    d_true, d_ds, ds_rounds, d_hs, hs_hops = benchmark.pedantic(run, rounds=1, iterations=1)
    cols = ["method", "estimate", "ratio", "depth_rounds"]
    _report.record("Delta-stepping vs hopset query", cols,
                   method="delta-stepping (exact)", estimate=d_ds, ratio=d_ds / d_true,
                   depth_rounds=ds_rounds)
    _report.record("Delta-stepping vs hopset query", cols,
                   method="EST hopset query", estimate=d_hs, ratio=d_hs / d_true,
                   depth_rounds=hs_hops)
    assert d_ds == pytest.approx(d_true)
    assert d_hs <= PARAMS.predicted_distortion(g.n) * d_true
    assert hs_hops < ds_rounds  # the hopset's depth advantage
