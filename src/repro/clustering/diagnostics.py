"""Empirical measurement of the EST clustering lemmas.

These functions are the measurement side of the Lemma 2.1 / Lemma 2.2 /
Corollary 2.3 / Corollary 3.1 benchmarks: they compute, on a concrete
clustering, the quantities the lemmas bound in expectation or with high
probability.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.clustering.est import Clustering, est_cluster
from repro.graph.csr import CSRGraph
from repro.paths.engine import shortest_paths
from repro.rng import SeedLike, resolve_rng


def cluster_radii(clustering: Clustering) -> np.ndarray:
    """Certified tree radius of every cluster (Lemma 2.1's quantity)."""
    return clustering.tree_radii()


def cut_edge_mask(g: CSRGraph, clustering: Clustering) -> np.ndarray:
    """Boolean mask over undirected edges whose endpoints lie in different clusters."""
    return clustering.center[g.edge_u] != clustering.center[g.edge_v]


def cut_fraction(g: CSRGraph, clustering: Clustering) -> float:
    """Fraction of edges cut (Corollary 2.3 bounds its expectation by beta*w)."""
    if g.m == 0:
        return 0.0
    return float(cut_edge_mask(g, clustering).mean())


def adjacent_cluster_counts(g: CSRGraph, clustering: Clustering) -> np.ndarray:
    """For every vertex, the number of *other* clusters adjacent to it.

    This is the Corollary 3.1 quantity (clusters intersecting the unit
    ball around v, excluding v's own) and exactly the number of
    inter-cluster edges the spanner construction keeps per vertex.
    Vectorized: dedupe (vertex, neighbor-cluster) pairs over all arcs.
    """
    if g.m == 0:
        return np.zeros(g.n, dtype=np.int64)
    src = g.arc_sources()
    dst = g.indices
    lab = clustering.labels
    inter = lab[src] != lab[dst]
    pairs_v = src[inter]
    pairs_c = lab[dst[inter]]
    if pairs_v.size == 0:
        return np.zeros(g.n, dtype=np.int64)
    key = pairs_v * np.int64(clustering.num_clusters) + pairs_c
    uniq_key = np.unique(key)
    verts = (uniq_key // clustering.num_clusters).astype(np.int64)
    counts = np.bincount(verts, minlength=g.n)
    return counts


def ball_cluster_count(
    g: CSRGraph, clustering: Clustering, center: int, radius: float
) -> int:
    """Number of distinct clusters intersecting the ball B(center, radius).

    Lemma 2.2 bounds ``Pr[count >= k]`` by ``(1 - exp(-2 r beta))^(k-1)``.
    Uses an exact engine search from ``center`` (measurement code; not
    on the algorithm's critical path).
    """
    dist = shortest_paths(g, center).dist
    inside = dist <= radius + 1e-12
    return int(np.unique(clustering.center[inside]).shape[0])


def monte_carlo_ball_intersections(
    g: CSRGraph,
    beta: float,
    radius: float,
    trials: int,
    seed: SeedLike = None,
    method: str = "exact",
) -> np.ndarray:
    """Sample ``trials`` independent clusterings; return the cluster count
    of a ball of ``radius`` around a random vertex each time."""
    rng = resolve_rng(seed)
    out = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        c = est_cluster(g, beta, seed=rng, method=method)
        v = int(rng.integers(0, g.n))
        out[t] = ball_cluster_count(g, c, v, radius)
    return out


def empirical_cut_probability(
    g: CSRGraph,
    beta: float,
    trials: int,
    seed: SeedLike = None,
    method: str = "exact",
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge cut frequency over ``trials`` clusterings.

    Returns ``(frequency, bound)`` where ``bound = min(1, beta * w(e))``
    is Corollary 2.3's ceiling.
    """
    rng = resolve_rng(seed)
    freq = np.zeros(g.m, dtype=np.float64)
    for _ in range(trials):
        c = est_cluster(g, beta, seed=rng, method=method)
        freq += cut_edge_mask(g, c)
    freq /= trials
    bound = np.minimum(1.0, beta * g.edge_w)
    return freq, bound
