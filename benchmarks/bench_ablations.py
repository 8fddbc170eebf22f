"""Ablations of four design choices in the hopset and clustering code.

1. Geometric beta schedule (Claim 4.1) vs a flat beta at every level.
2. Large-cluster threshold rho: size/hop tradeoff.
3. Clique edges on vs star-only hopsets.
4. Exact vs round-synchronous EST execution.
"""

from __future__ import annotations

import numpy as np
import pytest

import _report
from repro.analysis import hop_reduction_summary
from repro.clustering import est_cluster, cut_fraction
from repro.hopsets import HopsetParams, build_hopset
from repro.hopsets.result import HopsetResult

PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5)


def test_ablation_beta_schedule(benchmark, bench_grid):
    """Flat beta (c_growth tiny => slow growth) vs the geometric schedule.

    A slow-growing beta leaves deep levels with big clusters: more
    levels, more distortion accumulated per Lemma 4.2.
    """
    g = bench_grid

    def run():
        geo = build_hopset(g, PARAMS, seed=95)
        flat = build_hopset(g, PARAMS.with_(c_growth=0.25), seed=95)
        s_geo = hop_reduction_summary(geo, n_pairs=8, seed=96)
        s_flat = hop_reduction_summary(flat, n_pairs=8, seed=96)
        return geo, flat, s_geo, s_flat

    geo, flat, s_geo, s_flat = benchmark.pedantic(run, rounds=1, iterations=1)
    cols = ["schedule", "size", "levels", "mean_hops", "max_distortion"]
    _report.record("Ablation beta schedule", cols, schedule="geometric (Claim 4.1)",
                   size=geo.size, levels=len(geo.levels),
                   mean_hops=s_geo.mean_hopset_hops, max_distortion=s_geo.max_distortion)
    _report.record("Ablation beta schedule", cols, schedule="slow growth (c=0.25)",
                   size=flat.size, levels=len(flat.levels),
                   mean_hops=s_flat.mean_hopset_hops, max_distortion=s_flat.max_distortion)
    assert s_geo.max_distortion <= PARAMS.predicted_distortion(g.n)


@pytest.mark.parametrize("delta", [1.2, 1.5, 2.5])
def test_ablation_rho_threshold(benchmark, bench_grid, delta):
    """rho = growth^delta: larger delta -> smaller 'small' clusters ->
    fewer recursion levels but more clique edges (Lemma 4.3 tradeoff)."""
    g = bench_grid
    params = PARAMS.with_(delta=delta)

    def run():
        hs = build_hopset(g, params, seed=97)
        s = hop_reduction_summary(hs, n_pairs=6, seed=98)
        return hs, s

    hs, s = benchmark.pedantic(run, rounds=1, iterations=1)
    _report.record(
        "Ablation rho threshold",
        ["delta", "rho", "size", "cliques", "levels", "mean_hops"],
        delta=delta,
        rho=params.rho(g.n),
        size=hs.size,
        cliques=hs.clique_count,
        levels=len(hs.levels),
        mean_hops=s.mean_hopset_hops,
    )
    assert s.max_distortion <= params.predicted_distortion(g.n)


def test_ablation_clique_edges(benchmark, bench_grid):
    """Star-only hopsets lose the long-range jump of Figure 3: hop counts
    on far pairs degrade versus the full construction."""
    g = bench_grid

    def run():
        full = build_hopset(g, PARAMS, seed=99)
        star_mask = full.kind == 0
        star_only = HopsetResult(
            graph=full.graph,
            eu=full.eu[star_mask],
            ev=full.ev[star_mask],
            ew=full.ew[star_mask],
            kind=full.kind[star_mask],
            levels=full.levels,
            meta=full.meta,
        )
        s_full = hop_reduction_summary(full, n_pairs=8, seed=100)
        s_star = hop_reduction_summary(star_only, n_pairs=8, seed=100)
        return s_full, s_star

    s_full, s_star = benchmark.pedantic(run, rounds=1, iterations=1)
    cols = ["variant", "mean_hops", "reduction"]
    _report.record("Ablation clique edges", cols, variant="star + clique (Alg 4)",
                   mean_hops=s_full.mean_hopset_hops, reduction=s_full.hop_reduction)
    _report.record("Ablation clique edges", cols, variant="star only",
                   mean_hops=s_star.mean_hopset_hops, reduction=s_star.hop_reduction)
    assert s_full.mean_hopset_hops <= s_star.mean_hopset_hops + 1e-9


def test_ablation_est_modes(benchmark, bench_gnm):
    """Exact vs round-synchronous EST: similar cluster structure, the
    round mode being the depth-efficient implementation."""
    g = bench_gnm
    beta = 0.3

    def run():
        stats = {}
        for mode in ("exact", "round"):
            counts, cuts = [], []
            for s in range(5):
                c = est_cluster(g, beta, seed=s, method=mode)
                counts.append(c.num_clusters)
                cuts.append(cut_fraction(g, c))
            stats[mode] = (float(np.mean(counts)), float(np.mean(cuts)))
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    cols = ["mode", "mean_clusters", "mean_cut_fraction"]
    for mode, (cnt, cut) in stats.items():
        _report.record("Ablation EST execution mode", cols, mode=mode,
                       mean_clusters=cnt, mean_cut_fraction=cut)
    ratio = stats["round"][0] / stats["exact"][0]
    assert 0.4 <= ratio <= 2.5
