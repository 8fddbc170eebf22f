"""Appendix B (weight scales, Lemma 5.1/B.2) and Appendix C (limited
hopsets, Lemma C.1 / Theorem C.2) benchmarks.
"""

from __future__ import annotations

import pytest

import _report
from repro.graph import grid_graph, hard_weight_graph
from repro.hopsets import build_limited_hopset, build_weight_scales, exact_distance
from repro.rng import resolve_rng


def test_appxB_decomposition_size_and_accuracy(benchmark):
    """Lemma 5.1: total piece size O(m), per-piece ratio O((n/eps)^3),
    query error <= eps."""
    g = hard_weight_graph(300, 900, n_scales=4, seed=81)

    def build():
        return build_weight_scales(g, eps=0.2)

    dec = benchmark.pedantic(build, rounds=3, iterations=1)

    rng = resolve_rng(82)
    errs = []
    for _ in range(15):
        s, t = rng.integers(0, g.n, 2)
        if s == t:
            continue
        d = exact_distance(g, int(s), int(t))
        errs.append(abs(dec.query_distance(int(s), int(t)) - d) / d)
    _report.record(
        "Appendix B weight-scale decomposition",
        ["n", "m", "U", "levels", "piece_edges", "bound_3m", "max_ratio",
         "ratio_bound", "worst_query_err", "eps"],
        n=g.n,
        m=g.m,
        U=g.weight_ratio,
        levels=dec.num_levels,
        piece_edges=dec.total_piece_edges(),
        bound_3m=3 * g.m,
        max_ratio=max(p.weight_ratio for p in dec.pieces),
        ratio_bound=dec.base ** 3,
        worst_query_err=max(errs),
        eps=dec.eps,
    )
    assert dec.total_piece_edges() <= 3 * g.m
    assert all(p.weight_ratio <= dec.base**3 * (1 + 1e-9) for p in dec.pieces)
    assert max(errs) <= dec.eps + 1e-9


@pytest.mark.parametrize("alpha", [0.5, 0.7])
def test_appxC_limited_hopsets(benchmark, alpha):
    """Theorem C.2 shape: queries resolve within ~n^alpha hops while the
    plain graph needs ~diameter hops."""
    g = grid_graph(13, 13)

    def build():
        return build_limited_hopset(g, alpha=alpha, epsilon=0.5, seed=83)

    lh = benchmark.pedantic(build, rounds=1, iterations=1)

    s, t = 0, g.n - 1
    d = exact_distance(g, s, t)
    est, hops = lh.query(s, t)
    _report.record(
        "Appendix C limited hopsets",
        ["alpha", "outer_rounds", "hopset_edges", "plain_hops", "hops_used",
         "hop_budget_n^a", "ratio"],
        alpha=alpha,
        outer_rounds=lh.rounds,
        hopset_edges=lh.size,
        plain_hops=d,
        hops_used=hops,
        **{"hop_budget_n^a": lh.hop_budget},
        ratio=est / d,
    )
    assert hops <= lh.hop_budget
    assert hops < d  # better than plain BFS depth
    assert 1.0 - 1e-9 <= est / d <= 2.5
