"""Stretch verification for spanners.

A subgraph H is a t-spanner iff dist_H(u, v) <= t * dist_G(u, v) for
all pairs — and it suffices to check endpoints of every edge of G
(Section 2.2), which is what :func:`edge_stretches` measures.  Exact
verification runs one C-speed Dijkstra per distinct edge endpoint on
the spanner; sampled verification bounds cost on big graphs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import VerificationError
from repro.graph.csr import CSRGraph
from repro.rng import SeedLike, resolve_rng
from repro.spanners.result import SpannerResult


def edge_stretches(
    g: CSRGraph,
    spanner: SpannerResult | CSRGraph,
    sample_edges: Optional[int] = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """Stretch ``dist_H(u,v) / w(u,v)`` for (a sample of) g's edges.

    An unreachable endpoint pair yields ``inf`` (the spanner failed to
    even connect the edge's component — a hard error for our
    constructions, which keep spanning forests).
    """
    h = spanner.subgraph() if isinstance(spanner, SpannerResult) else spanner
    if g.m == 0:
        return np.empty(0, np.float64)
    if sample_edges is not None and sample_edges < g.m:
        rng = resolve_rng(seed)
        idx = rng.choice(g.m, size=sample_edges, replace=False)
    else:
        idx = np.arange(g.m)

    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    hs = h.to_scipy()
    us = g.edge_u[idx]
    vs = g.edge_v[idx]
    ws = g.edge_w[idx]
    uniq_src, inv = np.unique(us, return_inverse=True)
    D = sp_dijkstra(hs, directed=False, indices=uniq_src)
    dh = D[inv, vs]
    return dh / ws


def max_edge_stretch(
    g: CSRGraph,
    spanner: SpannerResult | CSRGraph,
    sample_edges: Optional[int] = None,
    seed: SeedLike = None,
) -> float:
    """Maximum per-edge stretch (see :func:`edge_stretches`)."""
    s = edge_stretches(g, spanner, sample_edges=sample_edges, seed=seed)
    return float(s.max()) if s.size else 1.0


def verify_spanner(
    g: CSRGraph,
    spanner: SpannerResult,
    stretch: Optional[float] = None,
    sample_edges: Optional[int] = None,
    seed: SeedLike = None,
) -> float:
    """Raise :class:`VerificationError` unless the stretch bound holds.

    Returns the measured max stretch.  ``stretch`` defaults to the
    result's own ``stretch_bound``.
    """
    bound = stretch if stretch is not None else spanner.stretch_bound
    worst = max_edge_stretch(g, spanner, sample_edges=sample_edges, seed=seed)
    if not np.isfinite(worst) or worst > bound + 1e-9:
        raise VerificationError(
            f"stretch {worst} exceeds the certified bound {bound}"
        )
    return worst

