"""Per-level structure checks for :func:`repro.hopsets.build_hopset`.

Section 4's analysis is per recursion level (beta schedule, cluster
counts, star/clique budgets); :func:`check_level_invariants` checks a
construction's :class:`~repro.hopsets.result.LevelStats` against those
claims level by level — the fine-grained companion to the aggregate
Lemma 4.3 bound.
"""

from __future__ import annotations

from repro.errors import VerificationError
from repro.hopsets.params import HopsetParams
from repro.hopsets.result import HopsetResult


def check_level_invariants(hopset: HopsetResult, params: HopsetParams) -> None:
    """Verify Section 4's per-level structure; raise on violation.

    Checks: the beta schedule is non-decreasing and matches Claim 4.1's
    geometric growth (up to the cap); per-level star edges never exceed
    that level's vertex count; cluster counts never exceed vertices;
    level-0 (the first call) adds no shortcut edges.
    """
    levels = hopset.levels
    if not levels:
        return
    n_top = hopset.graph.n
    prev_beta = 0.0
    for ls in levels:
        if ls.beta < prev_beta - 1e-12:
            raise VerificationError(f"beta decreased at level {ls.level}")
        prev_beta = ls.beta
        expected = params.beta_at(ls.level, n_top)
        if abs(ls.beta - expected) > 1e-9 * max(expected, 1.0):
            raise VerificationError(
                f"level {ls.level} beta {ls.beta} != Claim 4.1 value {expected}"
            )
        if ls.star_edges > ls.vertices:
            raise VerificationError(
                f"level {ls.level}: {ls.star_edges} stars exceed {ls.vertices} vertices"
            )
        if ls.clusters > ls.vertices:
            raise VerificationError(
                f"level {ls.level}: more clusters than vertices"
            )
        if ls.large_clusters > ls.clusters:
            raise VerificationError(
                f"level {ls.level}: more large clusters than clusters"
            )
    first = levels[0]
    if first.level == 0 and (first.star_edges or first.clique_edges):
        raise VerificationError("the first call must only split (Algorithm 4 line 4)")
