"""Sequential per-group Algorithm 3: the oracle for the batched spanner.

:func:`repro.spanners.weighted_spanner` runs the O(log k)
well-separated groups level-synchronously: round ``t`` contracts,
races and emits the ``t``-th weight level of every group at once.
This module keeps the original loop — one group after another, one
weight level after another, with a union–find per group.  Both hand
group ``j`` the same spawned generator and skip fully contracted
levels without drawing randomness, so for a fixed seed they emit
*identical* edge sets (pinned by ``test_spanners_batched.py`` and
``benchmarks/bench_spanner.py``).  It picks boundary edges with
:func:`boundary_edge_ids_reference`, the arc-list pass that
``repro.spanners.result.boundary_edge_ids`` replaced, so the two
builders share no boundary code.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.dedup import first_of_runs
from repro.graph.unionfind import UnionFind
from repro.pram.primitives import charge_semisort
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import SeedLike, resolve_rng, spawn_seeds
from repro.spanners.result import SpannerResult
from repro.spanners.unweighted import spanner_beta
from repro.spanners.weighted import (
    _unique_edge_ids,
    _weighted_stretch_bound,
    contracted_quotient,
    weight_buckets,
    well_separated_groups,
)

from .est import est_cluster_reference


def boundary_edge_ids_reference(
    g: CSRGraph, labels: np.ndarray, tracker: Optional[PramTracker] = None
) -> np.ndarray:
    """``boundary_edge_ids`` over all ``2m`` arcs: every arc whose ends
    lie in different clusters is a ``(tail, head's cluster, edge)``
    row, and each ``(tail, cluster)`` run keeps its lowest edge id.
    The same ids in the same order, and the same semisort charge."""
    src = g.arc_sources()
    dst = g.indices
    inter = labels[src] != labels[dst]
    if tracker is not None:
        charge_semisort(tracker, int(inter.sum()) + g.n)
    if not inter.any():
        return np.empty(0, np.int64)
    v_side = src[inter]
    c_side = labels[dst[inter]]
    e_side = g.edge_ids[inter]
    return e_side[first_of_runs((v_side, c_side), prefer=(e_side,))]


def _well_separated_spanner(
    g: CSRGraph,
    edge_idx: np.ndarray,
    bucket: np.ndarray,
    k: float,
    rng: np.random.Generator,
    method: str,
    tracker: PramTracker,
) -> np.ndarray:
    """Algorithm 3 on one well-separated group; returns original edge ids.

    ``edge_idx`` are indices into g's edge list belonging to this group;
    ``bucket`` is the global bucket array (used to order levels).
    """
    if edge_idx.size == 0:
        return np.empty(0, np.int64)
    beta = spanner_beta(g.n, k)
    uf = UnionFind(g.n)
    kept: List[np.ndarray] = []

    levels = np.unique(bucket[edge_idx])
    for b in levels:
        ids = edge_idx[bucket[edge_idx] == b]

        # contract through the union-find of previously kept forests
        q = contracted_quotient(g, uf, ids)
        if q is None:
            continue
        gq = q.graph

        with tracker.phase("group_level"):
            clustering = est_cluster_reference(
                gq, beta, seed=rng, method=method, tracker=tracker
            )

        # forest edges -> original ids, and contract them for next levels
        qids = clustering.parent_edge[clustering.parent_edge >= 0]
        if qids.size:
            forest_orig = q.rep_edge_ids[qids]
            kept.append(forest_orig)
            uf.union_edges(g.edge_u[forest_orig], g.edge_v[forest_orig])

        # boundary edges: one per (boundary quotient vertex, adjacent cluster)
        qids = boundary_edge_ids_reference(gq, clustering.labels)
        if qids.size:
            kept.append(q.rep_edge_ids[qids])

    return _unique_edge_ids(g.m, kept)


def weighted_spanner_recursive(
    g: CSRGraph,
    k: float,
    seed: SeedLike = None,
    method: str = "round",
    separation: float = 4.0,
    grouping: bool = True,
    tracker: Optional[PramTracker] = None,
) -> SpannerResult:
    """Theorem 3.3 group by group; same arguments and edges as
    ``weighted_spanner``.

    The groups' trackers are max-merged as parallel children.  ``meta``
    records only ``k``, ``num_groups`` and ``num_buckets``, and there is
    no checkpointing: those belong to the product builder.
    """
    tracker = tracker or null_tracker()
    bucket = weight_buckets(g)
    if grouping:
        groups = well_separated_groups(bucket, k, separation)
    else:
        groups = [np.flatnonzero(bucket == b) for b in np.unique(bucket)]
    seeds = spawn_seeds(resolve_rng(seed), len(groups))

    kept: List[np.ndarray] = []
    children = []
    for j, grp in enumerate(groups):
        child_tracker = tracker.fork()
        kept.append(
            _well_separated_spanner(
                g, grp, bucket, k, resolve_rng(int(seeds[j])),
                method, child_tracker,
            )
        )
        children.append(child_tracker)
    tracker.parallel_children(children)

    return SpannerResult(
        graph=g,
        edge_ids=_unique_edge_ids(g.m, kept),
        stretch_bound=_weighted_stretch_bound(g.n, k),
        meta={
            "k": float(k),
            "num_groups": float(len(groups)),
            "num_buckets": float(np.unique(bucket).shape[0]) if g.m else 0.0,
        },
    )
