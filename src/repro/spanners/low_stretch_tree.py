"""AKPW-style low-stretch spanning trees via iterated EST contraction.

The paper's weighted spanner "uses an approach introduced in [CMP+14]
that's closely related to the AKPW low-stretch spanning tree algorithm
[AKPW95]" (Section 3).  Running the same machinery while keeping *only*
forest edges — iterating until a single vertex remains — yields exactly
an AKPW-style spanning tree:

    repeat: bucket edges by weight; EST-cluster the lightest live
    bucket's quotient graph; contract the cluster forests.

Each vertex pair's tree path stays within the clusters that merged
them, giving polylog *average* stretch on many graph families (the
worst-case single-pair stretch can be large — that is inherent to
spanning trees).  We measure average stretch rather than certify it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.clustering.est import est_cluster
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.graph.dedup import rows_by_value
from repro.graph.unionfind import UnionFind
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import SeedLike, resolve_rng
from repro.spanners.result import SpannerResult, edge_id_lookup
from repro.spanners.unweighted import spanner_beta
from repro.spanners.weighted import contracted_quotient, weight_buckets


def low_stretch_spanning_tree(
    g: CSRGraph,
    k: float = 4.0,
    seed: SeedLike = None,
    method: str = "round",
    max_iterations: int = 200,
    tracker: Optional[PramTracker] = None,
) -> SpannerResult:
    """Build a spanning tree by iterated EST clustering + contraction.

    Parameters
    ----------
    k:
        Controls the per-level clustering granularity (beta =
        log(n)/(2k), as in the spanner); larger k contracts more
        aggressively per level.

    Returns a :class:`SpannerResult` whose edges form a spanning tree
    of each connected component (n - #components edges total).
    Raises :class:`NotConnectedError` never — disconnected inputs get a
    spanning forest.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    tracker = tracker or null_tracker()
    rng = resolve_rng(seed)
    beta = spanner_beta(g.n, k)

    uf = UnionFind(g.n)
    kept: List[np.ndarray] = []
    bucket = weight_buckets(g)
    num_buckets = int(bucket.max()) + 1 if g.m else 0

    iterations = 0
    # process weight levels lightest-first; within a level iterate until
    # the level's edges are exhausted (all endpoints merged)
    for ids_level in rows_by_value(bucket, num_buckets):
        while ids_level.size and iterations < max_iterations:
            iterations += 1
            q = contracted_quotient(g, uf, ids_level)
            if q is None:
                break
            c = est_cluster(q.graph, beta, seed=rng, method=method, tracker=tracker)
            child, parent = c.forest_edges()
            if child.size == 0:
                # singleton clusters everywhere: force progress by
                # keeping one live edge (its endpoints merge)
                live_one = q.rep_edge_ids[:1]
                kept.append(live_one)
                uf.union_edges(g.edge_u[live_one], g.edge_v[live_one])
                continue
            qids = edge_id_lookup(q.graph, child, parent)
            orig = q.rep_edge_ids[qids]
            kept.append(orig)
            uf.union_edges(g.edge_u[orig], g.edge_v[orig])

    edge_ids = np.unique(np.concatenate(kept)) if kept else np.empty(0, np.int64)
    return SpannerResult(
        graph=g,
        edge_ids=edge_ids,
        stretch_bound=float("inf"),  # spanning trees certify no worst-case pair bound
        meta={"k": float(k), "iterations": float(iterations)},
    )


def average_stretch(
    g: CSRGraph,
    tree: SpannerResult,
    sample_edges: Optional[int] = None,
    seed: SeedLike = None,
) -> float:
    """Average over edges of ``dist_T(u, v) / w(u, v)`` — the AKPW metric."""
    from repro.spanners.verify import edge_stretches

    s = edge_stretches(g, tree, sample_edges=sample_edges, seed=seed)
    finite = s[np.isfinite(s)]
    if finite.size == 0:
        return 1.0
    return float(finite.mean())


def bfs_tree(g: CSRGraph, root: int = 0) -> SpannerResult:
    """BFS spanning tree baseline (bad average stretch on meshes)."""
    from repro.paths.bfs import bfs

    _, parent = bfs(g, root)
    child = np.flatnonzero(parent >= 0)
    ids = edge_id_lookup(g, child, parent[child]) if child.size else np.empty(0, np.int64)
    return SpannerResult(graph=g, edge_ids=np.unique(ids), stretch_bound=float("inf"))


def random_spanning_tree(g: CSRGraph, seed: SeedLike = None) -> SpannerResult:
    """Kruskal on random edge order — the 'no structure' baseline."""
    rng = resolve_rng(seed)
    order = rng.permutation(g.m)
    uf = UnionFind(g.n)
    kept = []
    for ei in order:
        if uf.union(int(g.edge_u[ei]), int(g.edge_v[ei])):
            kept.append(int(ei))
    return SpannerResult(
        graph=g,
        edge_ids=np.asarray(sorted(kept), dtype=np.int64),
        stretch_bound=float("inf"),
    )
