"""Algorithm 2: ``UnweightedSpanner(G, k)``.

One exponential start time clustering with ``beta = log(n) / (2k)``;
the spanner is the cluster forest plus, for each boundary vertex, one
edge to each adjacent cluster.

* Stretch: an intra-cluster edge is certified by its cluster tree,
  whose radius is O(k) w.h.p. (Lemma 2.1 with ``beta = log n / 2k``);
  an inter-cluster edge (u, v) is replaced by the kept u-side edge into
  v's cluster plus two tree paths — again O(k).  Total stretch O(k).
* Size: the forest has < n edges; Corollary 3.1 bounds the expected
  number of (boundary vertex, adjacent cluster) pairs by n^(1+1/k).
* Cost: one clustering (O(m) work, O(k log* n) depth w.h.p.) plus one
  semisort over the inter-cluster arcs.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.clustering.est import Clustering, est_cluster
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import SeedLike
from repro.spanners.result import SpannerResult, boundary_edge_ids


def spanner_beta(n: int, k: float) -> float:
    """The decomposition parameter Algorithm 2 uses: ``log(n) / (2k)``."""
    if k < 1:
        raise ParameterError(f"stretch parameter k must be >= 1, got {k}")
    return math.log(max(n, 2)) / (2.0 * k)


def unweighted_spanner(
    g: CSRGraph,
    k: float,
    seed: SeedLike = None,
    method: str = "auto",
    tracker: Optional[PramTracker] = None,
    clustering: Optional[Clustering] = None,
) -> SpannerResult:
    """Construct an O(k)-spanner of an unweighted graph.

    Parameters
    ----------
    g:
        Input graph; must be unweighted (all weights 1).
    k:
        Stretch parameter; the result is an O(k)-spanner of expected
        size O(n^(1+1/k)).
    clustering:
        Optionally reuse a precomputed EST clustering of ``g``; mainly
        for tests that need to control the randomness.  A clustering of
        a graph with another vertex count, or drawn at another beta than
        ``spanner_beta(n, k)`` (the stretch bound assumes that beta),
        raises :class:`ParameterError`.

    Returns a :class:`SpannerResult` whose ``meta`` records the number
    of clusters, forest edges, and boundary edges.
    """
    if not g.is_unweighted:
        raise ParameterError("unweighted_spanner requires an unweighted graph")
    beta = spanner_beta(g.n, k)
    if clustering is not None and clustering.n != g.n:
        raise ParameterError(
            f"clustering covers {clustering.n} vertices but the graph has {g.n}"
        )
    if clustering is not None and clustering.beta != beta:
        raise ParameterError(
            f"clustering was drawn at beta {clustering.beta} but k={k} needs "
            f"beta {beta}"
        )
    tracker = tracker or null_tracker()

    with tracker.phase("cluster"):
        if clustering is None:
            clustering = est_cluster(g, beta, seed=seed, method=method, tracker=tracker)

    # --- forest edges: the race's winning arcs ------------------------
    forest_ids = clustering.parent_edge[clustering.parent_edge >= 0]

    # --- one edge per (boundary vertex, adjacent cluster) ---------------
    with tracker.phase("boundary"):
        boundary_ids = boundary_edge_ids(g, clustering.labels, tracker)

    edge_ids = np.unique(np.concatenate([forest_ids, boundary_ids]))
    return SpannerResult(
        graph=g,
        edge_ids=edge_ids,
        stretch_bound=_stretch_bound(g.n, k, beta),
        meta={
            "k": float(k),
            "beta": beta,
            "num_clusters": float(clustering.num_clusters),
            "forest_edges": float(forest_ids.shape[0]),
            "boundary_edges": float(boundary_ids.shape[0]),
            "max_cluster_radius": float(clustering.tree_radii().max()) if g.n else 0.0,
        },
    )


def _stretch_bound(n: int, k: float, beta: float) -> float:
    """The O(k) stretch constant this construction certifies.

    Intra-cluster: 2 * radius; inter-cluster: 2 * (2 * radius) + 1 via
    the kept boundary edge.  The radius is <= c * log(n) / beta = 2ck
    w.h.p. (Lemma 2.1, c = 2 for failure probability 1/n); so the
    certified bound is 4 * (2 * 2k) + 1.
    """
    radius = 2.0 * math.log(max(n, 2)) / beta  # = 4k
    return 4.0 * radius + 1.0
