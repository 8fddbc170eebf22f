"""Closed-form paper bounds for the paper-vs-measured tables.

Every benchmark prints a "paper" column computed here next to its
measured column, in the ``bench_results/<table>.txt`` tables that
``benchmarks/_report.py`` writes.
"""

from __future__ import annotations

import math

from repro.pram.tracker import log_star


# ----------------------------------------------------------------------
# Section 2 (EST clustering)
# ----------------------------------------------------------------------
def lemma21_radius_bound(n: int, beta: float, k: float = 2.0) -> float:
    """Lemma 2.1: cluster radius <= k log(n) / beta w.p. >= 1 - n^(1-k)."""
    return k * math.log(max(n, 2)) / beta


def lemma22_ball_bound(r: float, beta: float, k: int) -> float:
    """Lemma 2.2: Pr[ball of radius r meets >= k clusters] <= gamma^(k-1)."""
    gamma = 1.0 - math.exp(-2.0 * r * beta)
    return gamma ** max(k - 1, 0)


def cor23_cut_bound(beta: float, w: float) -> float:
    """Corollary 2.3: Pr[edge of weight w cut] <= 1 - exp(-beta w) < beta w."""
    return 1.0 - math.exp(-beta * w)


def cor31_expected_clusters(n: int, k: float) -> float:
    """Corollary 3.1: E[#clusters meeting B(v, 1)] <= n^(1/k)
    (with beta = log(n) / (2k))."""
    return float(n) ** (1.0 / k)


# ----------------------------------------------------------------------
# Section 3 (spanners) — Figure 1 columns
# ----------------------------------------------------------------------
def spanner_size_bound(n: int, k: float, weighted: bool = False) -> float:
    """Expected size O(n^(1+1/k)) (unweighted) / O(n^(1+1/k) log k) (weighted)."""
    base = float(n) ** (1.0 + 1.0 / k)
    if weighted:
        base *= max(math.log(max(k, 2.0)), 1.0)
    return base


def baswana_sen_size_bound(n: int, k: int) -> float:
    """[BS07]: O(k n^(1+1/k))."""
    return k * float(n) ** (1.0 + 1.0 / k)


def spanner_depth_bound(n: int, k: float, weight_ratio: float = 1.0) -> float:
    """O(k log* n) unweighted; O(k log* n log U) weighted (Figure 1)."""
    d = k * max(log_star(n), 1)
    if weight_ratio > 1.0:
        d *= max(math.log2(weight_ratio), 1.0)
    return d


# ----------------------------------------------------------------------
# Section 4 (hopsets) — Figure 2 columns
# ----------------------------------------------------------------------
def lemma42_hop_bound(n: int, n_final: float, beta0: float, d: float, delta: float) -> float:
    """Lemma 4.2: h = n^(1/delta) * n_final^(1-1/delta) * beta0 * d
    (cut count; segments inside base cases add an n_final factor)."""
    return (float(n) ** (1.0 / delta)) * (n_final ** (1.0 - 1.0 / delta)) * beta0 * d


def lemma43_star_bound(n: int) -> float:
    """Lemma 4.3: at most n star edges."""
    return float(n)


def lemma43_clique_bound(n: int, n_final: float, rho: float) -> float:
    """Lemma 4.3: at most (n / n_final) * rho^2 clique edges."""
    return (float(n) / max(n_final, 1.0)) * rho * rho


def thm44_work_bound(m: int, n: int, delta: float, epsilon: float) -> float:
    """Theorem 4.4: O(m log^(1+delta)(n) eps^(-delta))."""
    return m * (math.log(max(n, 2)) ** (1.0 + delta)) * (epsilon ** (-delta))


def thm44_depth_bound(n: int, gamma2: float) -> float:
    """Theorem 4.4: O(n^gamma2 log^2 n log* n)."""
    return (float(n) ** gamma2) * (math.log(max(n, 2)) ** 2) * max(log_star(n), 1)


def ks97_work_bound(m: int, n: int) -> float:
    """Figure 2 row [KS97, SS99]: O(m n^0.5)."""
    return m * math.sqrt(n)


def ks97_hop_bound(n: int) -> float:
    """Figure 2 row [KS97, SS99]: O(n^0.5) hops (log factor in practice)."""
    return math.sqrt(n)
