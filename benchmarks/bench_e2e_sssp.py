"""Theorem 1.2 end-to-end: (1+eps)-approximate s-t shortest paths.

The headline claim: approximate shortest paths with O(m polylog n)
work and strongly sublinear depth.  This bench runs the full pipeline
(hopset construction + h-hop query) on meshes of growing size and
compares depth against the plain parallel BFS baseline (depth ~
diameter) and work against the m*sqrt(n) of KS97.
"""

from __future__ import annotations

import numpy as np

import _report
from repro.analysis import fit_power_law
from repro.graph import grid_graph
from repro.hopsets import HopsetParams, build_hopset, ks97_hopset, suggested_hop_bound
from repro.hopsets.query import exact_distance
from repro.paths import hop_limited_distances
from repro.pram import PramTracker

PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5)
COLUMNS = ["n", "method", "prep_work", "query_depth_rounds", "total_depth", "ratio"]


def _run_pipeline(side: int, seed: int):
    g = grid_graph(side, side)
    s, t = 0, g.n - 1
    d_true = exact_distance(g, s, t)

    # plain BFS baseline: depth = distance
    plain_depth = int(d_true) + 1

    # ours
    build_t = PramTracker(n=g.n, depth_per_round=1)
    hs = build_hopset(g, PARAMS, seed=seed, tracker=build_t)
    h_budget = min(suggested_hop_bound(hs, d_true), int(d_true))
    query_t = PramTracker(n=g.n, depth_per_round=1)
    dist, hops, rounds = hop_limited_distances(hs.union_csr(), np.asarray([s]), h_budget, query_t)
    return {
        "n": g.n,
        "d_true": d_true,
        "plain_depth": plain_depth,
        "prep_work": build_t.work,
        "prep_depth": build_t.depth,
        "query_rounds": int(hops[t]),
        "ratio": float(dist[t]) / d_true,
        "m": g.m,
    }


def test_e2e_single_instance(benchmark):
    r = benchmark.pedantic(lambda: _run_pipeline(40, seed=91), rounds=1, iterations=1)
    _report.record(
        "Theorem 1.2 end-to-end SSSP",
        COLUMNS,
        n=r["n"],
        method="EST hopset (new)",
        prep_work=r["prep_work"],
        query_depth_rounds=r["query_rounds"],
        total_depth=r["prep_depth"] + r["query_rounds"],
        ratio=r["ratio"],
    )
    _report.record(
        "Theorem 1.2 end-to-end SSSP",
        COLUMNS,
        n=r["n"],
        method="plain BFS",
        prep_work=0,
        query_depth_rounds=r["plain_depth"],
        total_depth=r["plain_depth"],
        ratio=1.0,
    )
    assert r["ratio"] <= PARAMS.predicted_distortion(r["n"])
    assert r["query_rounds"] < r["plain_depth"] / 3  # large depth win


def test_e2e_depth_scaling(benchmark):
    """Query depth grows much slower than the diameter Theta(sqrt n)."""

    def run():
        return [_run_pipeline(side, seed=92) for side in (20, 28, 40, 52)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    ns = [r["n"] for r in rows]
    plain = [r["plain_depth"] for r in rows]
    ours = [max(r["query_rounds"], 1) for r in rows]
    plain_fit = fit_power_law(ns, plain)
    ours_fit = fit_power_law(ns, ours)
    _report.record(
        "Theorem 1.2 depth scaling (query)",
        ["method", "depth_exponent_vs_n", "r_squared"],
        method="plain BFS (diameter)",
        depth_exponent_vs_n=plain_fit.exponent,
        r_squared=plain_fit.r_squared,
    )
    _report.record(
        "Theorem 1.2 depth scaling (query)",
        ["method", "depth_exponent_vs_n", "r_squared"],
        method="EST hopset query",
        depth_exponent_vs_n=ours_fit.exponent,
        r_squared=ours_fit.r_squared,
    )
    assert plain_fit.exponent >= 0.45  # the mesh's sqrt(n) diameter
    assert ours_fit.exponent <= plain_fit.exponent  # we scale no worse
    assert np.mean(ours) < np.mean(plain) / 3  # and are much flatter


def test_e2e_work_vs_ks97(benchmark):
    def run():
        g = grid_graph(40, 40)
        t1 = PramTracker(n=g.n)
        build_hopset(g, PARAMS, seed=93, tracker=t1)
        t2 = PramTracker(n=g.n)
        ks97_hopset(g, seed=93, tracker=t2)
        return t1.work, t2.work, g.m

    ours, ks, m = benchmark.pedantic(run, rounds=1, iterations=1)
    _report.record(
        "Theorem 1.2 preprocessing work",
        ["method", "work", "work_per_edge"],
        method="EST hopset (new)", work=ours, work_per_edge=ours / m,
    )
    _report.record(
        "Theorem 1.2 preprocessing work",
        ["method", "work", "work_per_edge"],
        method="KS97 (m sqrt n)", work=ks, work_per_edge=ks / m,
    )
    assert ours < ks
