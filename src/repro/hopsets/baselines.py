"""Baseline hopset constructions for the Figure 2 comparison.

* :func:`ks97_hopset` — the Klein–Subramanian / Shi–Spencer style
  exact ``O(sqrt(n))``-hop hopset: sample ``Theta(sqrt(n))`` hub
  vertices, connect them into a clique weighted by their true
  distances.  Work ``O(m sqrt(n))`` (one SSSP per hub), size ``O(n)``
  — the first row of Figure 2.
* :func:`cohen_style_hopset` — a simplified stand-in for Cohen's
  pairwise-cover construction (Figure 2's polylog rows): a multi-level
  hub hierarchy with geometrically sparser levels; level-i hubs link to
  nearby level-(i+1) hubs and the sparsest level forms a clique.
  Cohen's real construction uses recursive pairwise covers; this
  hierarchy reproduces the *shape* being compared (near-linear size,
  polylog-ish hop counts, more work than Algorithm 4 at equal size); it
  is a substitution, not Cohen's algorithm.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.hopsets.result import HopsetResult
from repro.paths.dijkstra import dijkstra
from repro.paths.bfs import bfs
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import SeedLike, resolve_rng


def _sssp_dist(g: CSRGraph, source: int, tracker: PramTracker) -> np.ndarray:
    """One exact SSSP, charged as a sequential computation (these
    baselines are sequential-work constructions)."""
    if g.is_unweighted:
        d, _ = bfs(g, source, tracker=tracker)
        return np.where(d == np.iinfo(np.int64).max, np.inf, d.astype(np.float64))
    d, _, _ = dijkstra(g, source)
    tracker.charge(work=2 * g.m + g.n, depth=1)
    return d


def ks97_hopset(
    g: CSRGraph,
    seed: SeedLike = None,
    hub_factor: float = 1.0,
    tracker: Optional[PramTracker] = None,
) -> HopsetResult:
    """Sampled-hub clique hopset with the KS97 ``O(sqrt(n))`` hop bound.

    Samples ``hub_factor * sqrt(n)`` hubs uniformly; any shortest path
    with at least ``c sqrt(n) log n`` hops passes within ``O(sqrt(n)
    log n)`` hops of hubs w.h.p., so hub-to-hub clique edges cap the
    hop count at ``O(sqrt(n) log n)``.
    """
    tracker = tracker or null_tracker()
    rng = resolve_rng(seed)
    n = g.n
    k = max(1, min(n, int(round(hub_factor * math.sqrt(n)))))
    hubs = rng.choice(n, size=k, replace=False)

    eu: List[int] = []
    ev: List[int] = []
    ew: List[float] = []
    with tracker.phase("ks97"):
        for h in hubs:
            d = _sssp_dist(g, int(h), tracker)
            for h2 in hubs:
                if h2 > h and np.isfinite(d[h2]):
                    eu.append(int(h))
                    ev.append(int(h2))
                    ew.append(float(d[h2]))

    m_hs = len(eu)
    return HopsetResult(
        graph=g,
        eu=np.asarray(eu, dtype=np.int64),
        ev=np.asarray(ev, dtype=np.int64),
        ew=np.asarray(ew, dtype=np.float64),
        kind=np.ones(m_hs, dtype=np.int8),
        levels=[],
        meta={"algorithm": 1.0, "hubs": float(k), "delta": 2.0, "beta0": 1.0 / math.sqrt(max(n, 2)), "n_final": 1.0},
    )


def cohen_style_hopset(
    g: CSRGraph,
    levels: int = 3,
    seed: SeedLike = None,
    radius_factor: float = 4.0,
    tracker: Optional[PramTracker] = None,
) -> HopsetResult:
    """Multi-level hub-hierarchy hopset (simplified Cohen comparator).

    Level 0 is every vertex; level ``i >= 1`` samples each vertex with
    probability ``n^(-i/levels)``.  Every level-(i-1) hub adds an edge
    to each level-i hub within its distance-radius neighborhood (radius
    grows geometrically), and the top level forms a clique.  Size is
    O(n polylog) in expectation for moderate ``radius_factor``.
    """
    if levels < 1:
        raise ParameterError("levels must be >= 1")
    tracker = tracker or null_tracker()
    rng = resolve_rng(seed)
    n = g.n

    hub_sets: List[np.ndarray] = [np.arange(n, dtype=np.int64)]
    for i in range(1, levels + 1):
        p = float(n) ** (-i / float(levels + 1))
        prev = hub_sets[-1]
        pick = prev[rng.random(prev.shape[0]) < p]
        if pick.size == 0:
            pick = prev[: max(1, prev.shape[0] // 4)]
        hub_sets.append(pick)

    # geometric radii: start at the average edge weight scale
    w_scale = float(np.mean(g.edge_w)) if g.m else 1.0
    eu: List[int] = []
    ev: List[int] = []
    ew: List[float] = []

    with tracker.phase("cohen_style"):
        for i in range(1, levels + 1):
            radius = w_scale * (radius_factor ** i) * math.log(max(n, 2))
            uppers = hub_sets[i]
            upper_mask = np.zeros(n, dtype=bool)
            upper_mask[uppers] = True
            for h in uppers:
                d = _sssp_dist(g, int(h), tracker)
                near = np.flatnonzero((d <= radius) & np.isfinite(d))
                lowers = near[np.isin(near, hub_sets[i - 1])]
                for v in lowers:
                    if v != h:
                        eu.append(int(h))
                        ev.append(int(v))
                        ew.append(float(d[v]))
        # top-level clique
        top = hub_sets[-1]
        for a_idx, h in enumerate(top):
            d = _sssp_dist(g, int(h), tracker)
            for h2 in top[a_idx + 1 :]:
                if np.isfinite(d[h2]):
                    eu.append(int(h))
                    ev.append(int(h2))
                    ew.append(float(d[h2]))

    m_hs = len(eu)
    return HopsetResult(
        graph=g,
        eu=np.asarray(eu, dtype=np.int64),
        ev=np.asarray(ev, dtype=np.int64),
        ew=np.asarray(ew, dtype=np.float64),
        kind=np.ones(m_hs, dtype=np.int8),
        levels=[],
        meta={"algorithm": 2.0, "levels": float(levels), "delta": 2.0, "beta0": 1.0 / max(n, 2), "n_final": 1.0},
    )
