"""Weighted spanners: bucketing + Algorithm 3 (``WellSeparatedSpanner``).

Pipeline (Section 3, Theorem 3.3):

1. Bucket the edges by powers of two:
   ``E_b = { e : w(e) in [w_min 2^b, w_min 2^(b+1)) }``.
2. Split buckets into ``s = O(log k)`` *well-separated groups*: group
   ``j`` takes buckets ``b ≡ j (mod s)``, so consecutive buckets inside
   a group differ in weight by at least a ``Theta(k)`` factor (our
   separation constant is configurable).
3. Inside each group run ``WellSeparatedSpanner``: walk the buckets in
   increasing weight order, each time contracting the clusters of
   previous levels (a level's forest spans exactly its clusters),
   running an *unweighted* EST clustering on the quotient graph of the
   current bucket, and keeping forest + boundary edges — all reported
   as original-graph edge ids via the quotient's representative-edge
   tracking.

The O(log k) grouping is what reduces the naive O(log U) size overhead
to O(log k); the ablation benchmark compares both.

The paper runs the O(log k) groups *in parallel* — their levels are
independent.  The builder executes the whole construction that way,
**level-synchronously**: round ``t`` takes every group's ``t``-th
weight level, does all groups' contractions in one pass
(:func:`repro.graph.quotient.quotient_forest` — a block-diagonal union
of the per-group quotient graphs), clusters every block with a
*single* EST race (:func:`repro.clustering.est.est_cluster_forest` —
waves cannot cross blocks), and emits all groups' forest + boundary
edges as two vectorized passes over the level's label arrays.  The
sequential per-group loop lives in ``tests/oracles`` as the
correctness oracle: both draw per-group randomness from the same
spawned streams and emit *identical* edge sets for a fixed seed
(pinned by ``tests/test_spanners_batched.py`` and
``BENCH_spanner.json``).
"""

from __future__ import annotations

import math
from functools import partial
from typing import List, Optional

import numpy as np

from repro.checkpoint import CheckpointCut, State
from repro.clustering.est import est_cluster_forest
from repro.clustering.shifts import sample_shifts
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.graph.dedup import presence_unique, rows_by_value, stable_argsort
from repro.graph.quotient import QuotientResult, quotient_forest, quotient_graph
from repro.graph.unionfind import UnionFind, find_roots
from repro.kernels import check_backend
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import SeedLike, resolve_rng, spawn_seeds
from repro.spanners.result import SpannerResult, boundary_edge_ids
from repro.spanners.unweighted import spanner_beta


def weight_buckets(g: CSRGraph) -> np.ndarray:
    """Power-of-two bucket index per edge, relative to the minimum weight.

    Bucket ``b`` holds weights in ``[w_min * 2^b, w_min * 2^(b+1))``.
    """
    if g.m == 0:
        return np.empty(0, np.int64)
    w_min = g.min_weight
    if w_min <= 0:
        raise ParameterError("weights must be positive")
    b = np.floor(np.log2(g.edge_w / w_min)).astype(np.int64)
    # guard against float roundoff putting w_min*2^b slightly above w
    wlo = w_min * np.exp2(b.astype(np.float64))
    b[wlo > g.edge_w] -= 1
    return b


def group_stride(k: float, separation: float = 4.0) -> int:
    """Number of well-separated groups: ``ceil(log2(separation * k))``.

    Consecutive buckets inside one group then differ in weight by a
    factor >= ``separation * k``, the paper's "well separated" premise
    (weights differing by at least O(k) between levels).
    ``separation`` must exceed 1: at 1 or below the premise collapses
    (for small ``k`` every bucket lands in one group and the
    construction silently degenerates to the ungrouped scheme).
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    if separation <= 1:
        raise ParameterError(
            f"separation must be > 1 (well-separated premise), got {separation}"
        )
    return max(1, int(math.ceil(math.log2(max(separation * k, 2.0)))))


def well_separated_groups(bucket: np.ndarray, k: float, separation: float = 4.0) -> List[np.ndarray]:
    """Partition edge indices into O(log k) groups of well-separated buckets.

    Returns a list of edge-index arrays; group ``j`` contains edges whose
    bucket index is congruent to ``j`` modulo the stride.
    """
    s = group_stride(k, separation)
    return rows_by_value(bucket % s, s)


def contracted_quotient(
    g: CSRGraph, uf: UnionFind, ids: np.ndarray
) -> Optional[QuotientResult]:
    """One weight level's quotient: contract ``ids`` through ``uf``.

    Resolves the endpoints of the level's edges to their union–find
    roots, drops edges already connected by previous levels' forests,
    compacts the surviving roots, and builds the uniform-weight
    quotient graph whose ``rep_edge_ids`` are original edge ids.
    Returns ``None`` when nothing is live (the caller skips the level —
    and must then not consume any randomness for it).  Used by the
    low-stretch tree loop and the per-group spanner oracle in
    ``tests/oracles``.
    """
    ru = uf.find_many(g.edge_u[ids])
    rv = uf.find_many(g.edge_v[ids])
    live = ru != rv
    if not live.any():
        return None
    ru, rv, live_ids = ru[live], rv[live], ids[live]
    used = np.unique(np.concatenate([ru, rv]))
    label = np.full(g.n, -1, dtype=np.int64)
    label[used] = np.arange(used.shape[0], dtype=np.int64)
    return quotient_graph(
        labels=np.arange(used.shape[0], dtype=np.int64),
        edge_u=label[ru],
        edge_v=label[rv],
        edge_w=np.ones(live_ids.shape[0], dtype=np.float64),  # Γ_i is uniform
        edge_ids=live_ids,
    )


def _unique_edge_ids(m: int, parts: List[np.ndarray]) -> np.ndarray:
    """Sorted deduplicated union of edge-id arrays (ids live in [0, m)).

    A presence bitmap + ``flatnonzero`` — the kept-edge union runs over
    hundreds of thousands of ids per build, where hash/sort
    ``np.unique`` was a visible profile cost.
    """
    return presence_unique(m, parts, sparse_factor=0)


def _round_state(parent: np.ndarray, kept: List[np.ndarray]) -> State:
    """A spanner checkpoint: the contraction forest and the kept edge ids."""
    flat = np.concatenate(kept) if kept else np.empty(0, np.int64)
    return {"uf_parent": parent, "kept": flat}, {}


def _well_separated_spanner_batched(
    g: CSRGraph,
    bucket: np.ndarray,
    bucket_group: np.ndarray,
    k: float,
    seeds: np.ndarray,
    method: str,
    tracker: PramTracker,
    cut: CheckpointCut,
) -> np.ndarray:
    """All groups' Algorithm 3 runs, executed level-synchronously.

    ``bucket_group[b]`` is the group of weight bucket ``b``; group ``j``
    draws from ``seeds[j]``.  Round ``t`` processes the ``t``-th weight
    level of *every* group at once, with no per-group work at all
    beyond drawing each group's shifts from its own stream:

    * the level schedule is materialized upfront from one rank table
      over the occupied buckets and one radix order of the edge list by
      ``(level rank, group)`` — round ``t`` is a contiguous slice,
      already grouped with ascending edge ids, and its edges' groups
      are one ``np.repeat`` of the schedule's per-(round, group) edge
      counts;
    * all groups' running contractions live in a *single* parent
      array over the group-tagged id space ``[0, s * n)`` (group ``j``
      owns ``[j * n, (j + 1) * n)``), so one :func:`find_roots`
      resolves the whole round; groups with a single weight level
      never consult it (their one level starts uncontracted), which
      keeps the ``grouping=False`` ablation — one group per bucket —
      allocation-free;
    * :func:`quotient_forest` builds the round's block-diagonal
      quotient union in one pass, :func:`est_cluster_forest` clusters
      every block in one race, and forest/boundary edges fall out of
      two vectorized passes over the round's label arrays;
    * the contraction follows the cluster labels (a cluster's forest
      spans exactly the cluster): one scatter over the round's quotient
      vertices hooks each cluster's roots onto its smallest, so roots
      stay component minima as in the oracle's ``UnionFind`` and the
      per-group quotients are bitwise the oracle's, just offset.

    Groups whose round-``t`` level is fully contracted (or exhausted)
    contribute no block — and, exactly like the per-group oracle in
    ``tests/oracles``, draw no randomness for that level, so both
    consume each group's spawned stream level-for-level and emit
    identical edge sets per seed.

    ``cut`` saves the parent array, the kept ids and the streams before
    every round after the first, and resumes from them.
    """
    n = g.n
    num_groups = int(seeds.shape[0])
    beta = spanner_beta(n, k)
    rngs = [resolve_rng(int(s)) for s in seeds]
    kept: List[np.ndarray] = []

    # ---- level schedule: one rank table, one radix order ---------------
    # a group's t-th level is its t-th occupied bucket by weight; the
    # occupied buckets ascend, so a stable order by group lists every
    # group's levels in weight order and ranks them
    per_bucket = np.bincount(bucket, minlength=bucket_group.shape[0])
    occupied = np.flatnonzero(per_bucket)
    occ_group = bucket_group[occupied]
    num_levels = np.bincount(occ_group, minlength=num_groups)
    rank = np.empty(occupied.shape[0], dtype=np.int64)
    rank[stable_argsort(occ_group)] = np.arange(occupied.shape[0]) - np.repeat(
        np.cumsum(num_levels) - num_levels, num_levels
    )
    slot = np.zeros(bucket_group.shape[0], dtype=np.int64)
    slot[occupied] = rank * num_groups + occ_group
    order = stable_argsort(slot[bucket])
    max_rounds = int(num_levels.max()) if num_groups else 0
    # edges per (round, group): one bucket each, so round t's slice
    # lists group j's counts[t, j] edges after those of groups < j
    counts = np.zeros((max_rounds, num_groups), dtype=np.int64)
    counts[rank, occ_group] = per_bucket[occupied]
    round_ptr = np.zeros(max_rounds + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=1), out=round_ptr[1:])
    group_ids = np.arange(num_groups, dtype=np.int64)

    # ---- one parent array over the group-tagged vertex space ---------
    # only groups that reach a second level ever read their block
    base = np.full(num_groups, -1, dtype=np.int64)
    multi = np.flatnonzero(num_levels >= 2)
    base[multi] = np.arange(multi.shape[0], dtype=np.int64) * n
    parent = np.arange(int(multi.shape[0]) * n, dtype=np.int64)

    t_start = 0
    saved = cut.resume()
    if saved is not None:
        parent = saved.arrays["uf_parent"]  # older files' uf_size is unread
        if saved.arrays["kept"].size:
            kept.append(saved.arrays["kept"])
        rngs = saved.generators()
        t_start = saved.level

    for t in range(t_start, max_rounds):
        if t:
            cut.save(t, rngs, partial(_round_state, parent, kept))
        ids = order[round_ptr[t] : round_ptr[t + 1]]
        gj = np.repeat(group_ids, counts[t])
        eu = g.edge_u[ids]
        ev = g.edge_v[ids]

        # ---- contract the whole round through the shared forest -------
        off = base[gj]
        tagged = off >= 0
        if tagged.all():
            ru = find_roots(parent, off + eu) - off
            rv = find_roots(parent, off + ev) - off
        else:
            ru, rv = eu.copy(), ev.copy()
            if tagged.any():
                off = off[tagged]
                ru[tagged] = find_roots(parent, off + eu[tagged]) - off
                rv[tagged] = find_roots(parent, off + ev[tagged]) - off
        live = ru != rv
        if not live.any():
            continue
        gj, ru, rv, ids = gj[live], ru[live], rv[live], ids[live]

        # compact the round's still-active groups into blocks
        active = presence_unique(num_groups, (gj,), sparse_factor=0)
        blk_of_group = np.empty(num_groups, dtype=np.int64)
        blk_of_group[active] = np.arange(active.shape[0], dtype=np.int64)

        # ---- the round's contraction, once, on the union --------------
        qf = quotient_forest(
            blk_of_group[gj],
            ru,
            rv,
            np.ones(ids.shape[0], dtype=np.float64),  # Γ_i is uniform
            num_groups=int(active.shape[0]),
            span=n,
            edge_ids=ids,
        )
        union = qf.graph

        # ---- one EST race over every block ----------------------------
        shifts = np.concatenate(
            [
                sample_shifts(int(qf.ptr[b + 1] - qf.ptr[b]), beta, rngs[j])
                for b, j in enumerate(active)
            ]
        )
        with tracker.phase("group_level"):
            clustering = est_cluster_forest(
                union, beta, qf.ptr, shifts, method=method, tracker=tracker
            )

        # ---- forest + boundary edges -> original ids ------------------
        labels = clustering.labels
        forest = clustering.parent_edge
        kept.append(qf.rep_edge_ids[forest[forest >= 0]])
        kept.append(qf.rep_edge_ids[boundary_edge_ids(union, labels)])

        # ---- contract: hook every cluster's roots onto its smallest ---
        # (a block's vertices ascend by root, so on its smallest vertex)
        off = np.repeat(base[active], np.diff(qf.ptr))
        sel = np.flatnonzero(off >= 0)
        root = off + qf.vertex_reps  # tagged; meaningless outside sel
        low = np.full(clustering.num_clusters, union.n, dtype=np.int64)
        np.minimum.at(low, labels[sel], sel)
        parent[root[sel]] = root[low[labels[sel]]]

    return _unique_edge_ids(g.m, kept)


def weighted_spanner(
    g: CSRGraph,
    k: float,
    seed: SeedLike = None,
    method: str = "round",
    separation: float = 4.0,
    grouping: bool = True,
    tracker: Optional[PramTracker] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> SpannerResult:
    """Construct an O(k)-spanner of a weighted graph (Theorem 3.3).

    Parameters
    ----------
    grouping:
        ``True`` (default) uses the O(log k) well-separated grouping;
        ``False`` treats every bucket as its own group (the naive
        O(log U)-overhead scheme) — kept for the ablation benchmark.
    method:
        EST execution mode on the (uniform-weight) quotient graphs.
    separation:
        Well-separatedness constant (> 1): consecutive buckets inside
        one group differ in weight by at least ``separation * k``.
    backend, workers:
        Kept only because the repository benchmark passes
        ``backend="numpy", workers=1``: ``backend`` must be ``None`` or
        ``"numpy"`` (anything else raises :class:`ParameterError`) and
        ``workers`` is unused.  Both go with ROADMAP item 10(d).

    Expected size O(n^(1+1/k) log k); stretch O(k); O(m) work and
    O(k log* n log U) depth, with the O(log k) groups running in
    parallel (the shared level schedule itself realizes the parallel
    composition).
    """
    check_backend(backend)
    # validates k and separation (> 1) for both grouping modes
    stride = group_stride(k, separation)
    tracker = tracker or null_tracker()
    rng = resolve_rng(seed)
    bucket = weight_buckets(g)
    num_buckets = int(bucket.max()) + 1 if g.m else 0
    occupied = presence_unique(num_buckets, (bucket,), sparse_factor=0)

    # group j takes the buckets b with bucket_group[b] == j: b ≡ j (mod
    # stride) with grouping, the j-th occupied bucket alone without
    if grouping:
        num_groups = stride
        bucket_group = np.arange(num_buckets, dtype=np.int64) % stride
    else:
        num_groups = int(occupied.shape[0])
        bucket_group = np.zeros(num_buckets, dtype=np.int64)
        bucket_group[occupied] = np.arange(num_groups, dtype=np.int64)

    # one spawned stream per group: the per-group oracle hands group j
    # the same child generator, so the seeded edge sets coincide exactly
    seeds = spawn_seeds(rng, num_groups)

    # seeds derive from the caller's seed, so they bind it; the
    # bucket-to-group map binds the grouping/separation choice
    cut = CheckpointCut(
        checkpoint_path, "spanner", g, float(k), method, seeds.tobytes(),
        bucket_group.tobytes(),
    )
    edge_ids = _well_separated_spanner_batched(
        g, bucket, bucket_group, k, seeds, method, tracker, cut
    )
    cut.clear()

    return SpannerResult(
        graph=g,
        edge_ids=edge_ids,
        stretch_bound=_weighted_stretch_bound(g.n, k),
        meta={
            "k": float(k),
            "num_groups": float(num_groups),
            "num_buckets": float(occupied.shape[0]),
            "weight_ratio": g.weight_ratio,
            "grouping": float(grouping),
        },
    )


def _weighted_stretch_bound(n: int, k: float) -> float:
    """Certified O(k) constant: the unweighted per-level bound degrades by
    at most a factor of 2 from contracted-piece diameters (Theorem 3.3),
    plus the factor-2 spread inside one weight bucket."""
    from repro.spanners.unweighted import _stretch_bound, spanner_beta

    return 4.0 * _stretch_bound(n, k, spanner_beta(n, k))
