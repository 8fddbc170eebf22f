"""Hop-count and distortion statistics for hopset evaluations (Lemma 4.2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hopsets.result import HopsetResult
from repro.paths.bellman_ford import hop_limited_distances
from repro.paths.dijkstra import dijkstra_scipy
from repro.rng import SeedLike, resolve_rng


@dataclass(frozen=True)
class HopSummary:
    """Paired (baseline hops, hopset hops, distortion) statistics."""

    pairs: int
    mean_plain_hops: float
    mean_hopset_hops: float
    max_hopset_hops: int
    mean_distortion: float
    max_distortion: float
    hop_reduction: float  # mean_plain / mean_hopset

    def row(self) -> dict:
        return {
            "hops_plain": self.mean_plain_hops,
            "hops_hopset": self.mean_hopset_hops,
            "distortion_max": self.max_distortion,
            "reduction": self.hop_reduction,
        }


def hop_reduction_summary(
    hopset: HopsetResult,
    n_pairs: int = 20,
    hop_budget: Optional[int] = None,
    seed: SeedLike = None,
) -> HopSummary:
    """Sample connected pairs; compare hop counts with vs without E'.

    *Plain hops* is the hop count of the (unweighted-hop-minimal within
    weight-optimal) Bellman–Ford path on E alone; *hopset hops* the hop
    count achieving a (near-)optimal weight on E ∪ E' within the
    budget; *distortion* the weight ratio between the two.
    """
    g = hopset.graph
    rng = resolve_rng(seed)
    csr_plain = (g.indptr, g.indices, g.weights)
    csr_aug = hopset.union_csr()

    sources = []
    targets = []
    attempts = 0
    exact = {}
    while len(sources) < n_pairs and attempts < 20 * n_pairs:
        attempts += 1
        s = int(rng.integers(0, g.n))
        t = int(rng.integers(0, g.n))
        if s == t:
            continue
        if s not in exact:
            exact[s] = dijkstra_scipy(g, s)
        if not np.isfinite(exact[s][t]):
            continue
        sources.append(s)
        targets.append(t)

    plain_h = []
    aug_h = []
    distortion = []
    for s, t in zip(sources, targets):
        d_true = float(exact[s][t])
        budget = hop_budget if hop_budget is not None else g.n
        _, hp, _ = hop_limited_distances(csr_plain, np.asarray([s]), budget)
        da, ha, _ = hop_limited_distances(csr_aug, np.asarray([s]), budget)
        plain_h.append(int(hp[t]))
        aug_h.append(int(ha[t]))
        distortion.append(float(da[t]) / d_true if d_true > 0 else 1.0)

    plain = np.asarray(plain_h, dtype=np.float64)
    aug = np.asarray(aug_h, dtype=np.float64)
    dis = np.asarray(distortion, dtype=np.float64)
    return HopSummary(
        pairs=len(sources),
        mean_plain_hops=float(plain.mean()) if plain.size else 0.0,
        mean_hopset_hops=float(aug.mean()) if aug.size else 0.0,
        max_hopset_hops=int(aug.max()) if aug.size else 0,
        mean_distortion=float(dis.mean()) if dis.size else 1.0,
        max_distortion=float(dis.max()) if dis.size else 1.0,
        hop_reduction=float(plain.mean() / max(aug.mean(), 1e-12)) if aug.size else 1.0,
    )
