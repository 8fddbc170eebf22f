"""Depth-first Algorithm 4: the oracle for the level-synchronous builder.

:func:`repro.hopsets.build_hopset` executes the paper's parallel
recursion level by level — one EST race and one batched center-search
pass per level over a block-diagonal union of every subproblem.  This
module keeps the original depth-first execution: one single-graph EST
race (``est_cluster_reference``) per subproblem, one search per
large-cluster center, one recursive call per surviving cluster, each
cut by ``induced_subgraph_reference``.  Both draw per-subproblem randomness from
the same spawned streams, so for a fixed seed they emit *identical*
edge sets and level statistics (pinned by ``test_hopsets_batched.py``
and ``benchmarks/bench_hopset.py``).

The recursion works on induced subgraphs with an explicit map back to
original vertex ids; all sub-calls at one level are independent, so
their trackers are merged with parallel (max-depth) semantics.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.hopsets.params import HopsetParams
from repro.hopsets.result import HopsetResult
from repro.hopsets.unweighted import _Collector
from repro.paths.bfs import bfs
from repro.paths.engine import shortest_paths
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import SeedLike, resolve_rng, spawn_seeds

from .est import est_cluster_reference
from .subgraph import induced_subgraph_reference


def _center_distances(
    sub: CSRGraph,
    center: int,
    tracker: PramTracker,
) -> np.ndarray:
    """Distances from one center in the current subgraph (the Line 9 BFS).

    Picks the cheapest exact engine for the weight type: unweighted ->
    level-synchronous BFS, integer weights -> Dial buckets, otherwise
    the float bucket engine; all three charge the tracker their real
    round/arc ledger.
    """
    if sub.is_unweighted:
        dist, _ = bfs(sub, center, tracker=tracker)
        return np.where(dist == np.iinfo(np.int64).max, np.inf, dist.astype(np.float64))
    w_int = sub.weights.astype(np.int64)
    if np.array_equal(w_int.astype(np.float64), sub.weights):
        dist = shortest_paths(
            sub, center, weights=w_int, delta=1, tracker=tracker
        ).dist
        return np.where(dist == np.iinfo(np.int64).max, np.inf, dist.astype(np.float64))
    return shortest_paths(sub, center, tracker=tracker).dist


def _cluster_method(sub: CSRGraph, requested: str) -> str:
    """The EST method per subproblem under ``auto``: integer weights
    take the quantized round race, real weights the exact one."""
    if requested != "auto":
        return requested
    if sub.is_unweighted:
        return "round"
    w_int = sub.weights.astype(np.int64)
    if np.array_equal(w_int.astype(np.float64), sub.weights):
        return "round"
    return "exact"


def _recurse(
    sub: CSRGraph,
    vmap: np.ndarray,
    level: int,
    is_first: bool,
    params: HopsetParams,
    n_top: int,
    rng: np.random.Generator,
    method: str,
    tracker: PramTracker,
    out: _Collector,
) -> None:
    n_sub = sub.n
    n_final = params.n_final(n_top)
    if n_sub <= n_final or level >= params.max_levels:
        return

    beta = params.beta_at(level, n_top)
    clustering = est_cluster_reference(
        sub,
        beta,
        seed=rng,
        method=_cluster_method(sub, method),
        tracker=tracker,
    )
    sizes = clustering.sizes
    num_clusters = clustering.num_clusters
    out.bump(
        level,
        subproblems=1,
        vertices=n_sub,
        clusters=num_clusters,
        beta=beta,
    )

    if is_first:
        # top level: just split; recurse on every cluster
        children: List[PramTracker] = []
        child_seeds = spawn_seeds(rng, num_clusters)
        for lab in range(num_clusters):
            members = clustering.members(lab)
            if members.shape[0] <= n_final:
                continue
            csub, _ = induced_subgraph_reference(sub, members)
            child_tracker = tracker.fork()
            _recurse(
                csub,
                vmap[members],
                level + 1,
                False,
                params,
                n_top,
                resolve_rng(int(child_seeds[lab])),
                method,
                child_tracker,
                out,
            )
            children.append(child_tracker)
        tracker.parallel_children(children)
        return

    rho = params.rho(n_top)
    threshold = n_sub / rho
    large = np.flatnonzero(sizes >= threshold)
    small = np.flatnonzero(sizes < threshold)
    out.bump(level, large_clusters=large.shape[0])

    # one search per large-cluster center over the current subgraph,
    # for the clique weights; compact label l's center *is*
    # centers[l] (labels come from the sorted uniques)
    center_ids = clustering.centers[large]
    dists: List[np.ndarray] = []
    if large.shape[0] >= 2:
        bfs_children = []
        for c in center_ids:
            child_tracker = tracker.fork()
            dists.append(_center_distances(sub, int(c), child_tracker))
            bfs_children.append(child_tracker)
        tracker.parallel_children(bfs_children)

    # ---- star edges on large clusters ----------------------------------
    # the clustering tree distance (the paper's line 8 — a concrete
    # path by construction)
    if large.shape[0]:
        for i, lab in enumerate(large):
            members = clustering.members(int(lab))
            c_local = int(center_ids[i])
            others = members[members != c_local]
            if others.size == 0:
                continue
            sw = clustering.dist_to_center[others]
            finite = np.isfinite(sw)
            out.add_edges(vmap[others[finite]], np.full(int(finite.sum()), vmap[c_local]), sw[finite], kind_code=0)
            out.bump(level, star_edges=int(finite.sum()))

    # ---- clique edges between large-cluster centers --------------------
    if large.shape[0] >= 2:
        dmat = np.stack(dists)[:, center_ids]  # (k, k) center-to-center
        iu, ju = np.triu_indices(center_ids.shape[0], k=1)
        dv = dmat[iu, ju]
        fin = np.isfinite(dv)
        out.add_edges(
            vmap[center_ids[iu[fin]]], vmap[center_ids[ju[fin]]], dv[fin], kind_code=1
        )
        out.bump(level, clique_edges=int(fin.sum()))

    # ---- recurse on small clusters -------------------------------------
    children = []
    child_seeds = spawn_seeds(rng, max(int(small.shape[0]), 1))
    for idx, lab in enumerate(small):
        members = clustering.members(int(lab))
        if members.shape[0] <= n_final:
            continue
        csub, _ = induced_subgraph_reference(sub, members)
        child_tracker = tracker.fork()
        _recurse(
            csub,
            vmap[members],
            level + 1,
            False,
            params,
            n_top,
            resolve_rng(int(child_seeds[idx])),
            method,
            child_tracker,
            out,
        )
        children.append(child_tracker)
    tracker.parallel_children(children)


def build_hopset_recursive(
    g: CSRGraph,
    params: Optional[HopsetParams] = None,
    seed: SeedLike = None,
    method: str = "auto",
    tracker: Optional[PramTracker] = None,
) -> HopsetResult:
    """Algorithm 4 depth-first; same arguments and edges as ``build_hopset``.

    Returns a :class:`HopsetResult` whose edges and level statistics
    equal :func:`repro.hopsets.build_hopset`'s for the same seed.  The
    result carries no ``meta`` and no repair structure, and there is
    no checkpointing: those belong to the product builder.
    """
    params = params or HopsetParams()
    tracker = tracker or null_tracker()
    out = _Collector()
    with tracker.phase("hopset"):
        _recurse(
            g,
            np.arange(g.n, dtype=np.int64),
            0,
            True,
            params,
            g.n,
            resolve_rng(seed),
            method,
            tracker,
            out,
        )
    return out.finish(g, {})
