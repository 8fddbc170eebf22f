"""Exponential Start Time clustering (Algorithm 1).

``ESTCluster(G, beta)``: draw ``delta_u ~ Exp(beta)`` per vertex and
assign ``v`` to ``argmin_u dist(u, v) - delta_u``; the winner's
shortest-path tree restricted to its cluster is the certifying spanning
tree.  Equivalently (Appendix A) it is a race: vertex ``u`` starts at
time ``delta_max - delta_u`` and floods the graph at unit speed; each
vertex joins the first wave to arrive.

The returned :class:`Clustering` carries everything downstream
algorithms need: per-vertex center, forest parent, tree distance to the
center, and the shifts (for reproducibility and diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.graph.dedup import presence_unique, stable_argsort
from repro.paths.bfs import bfs_with_start_times
from repro.paths.engine import check_finite, shortest_paths
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import SeedLike
from repro.clustering.shifts import sample_shifts

#: the race modes every EST entry point accepts
EST_METHODS = ("auto", "exact", "round")


@dataclass(frozen=True)
class Clustering:
    """Result of EST clustering.

    Attributes
    ----------
    center:
        ``int64[n]`` — the center vertex owning each vertex.  Every
        vertex is owned (centers own themselves).
    parent:
        ``int64[n]`` — spanning-forest parent; -1 at centers.  Each
        cluster's tree is rooted at its center.
    dist_to_center:
        ``float64[n]`` — distance from the center along the tree.
    shifts:
        The sampled ``delta_u`` (diagnostics/tests).
    beta:
        The decomposition parameter used.
    rounds:
        Number of synchronous rounds the race took (0 in exact mode
        unless a tracker measured it).
    """

    center: np.ndarray
    parent: np.ndarray
    dist_to_center: np.ndarray
    shifts: np.ndarray
    beta: float
    rounds: int = 0

    @property
    def n(self) -> int:
        return int(self.center.shape[0])

    @cached_property
    def centers(self) -> np.ndarray:
        """Sorted unique center vertex ids.

        Centers are vertex ids in ``[0, n)``, so a presence bitmap +
        ``flatnonzero`` beats a hash/sort ``np.unique`` — this runs once
        per clustering and the spanner builders hit it every level.
        ``est_cluster`` owns every vertex, but a hand-built Clustering
        may carry ``-1`` owners; those keep the old ``np.unique``
        semantics (``-1`` is its own cluster) instead of silently
        wrapping the bitmap index.
        """
        if self.center.size and self.center.min() < 0:
            return np.unique(self.center)
        return presence_unique(self.n, (self.center,), sparse_factor=1)

    @property
    def num_clusters(self) -> int:
        return int(self.centers.shape[0])

    @cached_property
    def labels(self) -> np.ndarray:
        """Compact cluster labels in [0, num_clusters)."""
        centers = self.centers
        if centers.size and centers[0] < 0:
            # negative owners: rank via bisection on the sorted centers
            return np.searchsorted(centers, self.center).astype(np.int64)
        rank = np.empty(self.n, dtype=np.int64)
        rank[centers] = np.arange(self.num_clusters, dtype=np.int64)
        return rank[self.center]

    @cached_property
    def sizes(self) -> np.ndarray:
        """Cluster sizes indexed by compact label."""
        return np.bincount(self.labels, minlength=self.num_clusters)

    @cached_property
    def member_order(self) -> np.ndarray:
        """Vertex ids grouped by compact label (one radix order, cached).

        The order is stable, so ids stay ascending inside each cluster
        and slicing this array reproduces exactly what per-label
        ``flatnonzero`` scans used to return — at O(n) once
        (:func:`~repro.graph.dedup.stable_argsort`) instead of
        O(n * num_clusters) across a loop over clusters.  Frozen
        read-only: ``members()``/``members_list()`` hand out views of
        it, and a caller mutating a view must fail loudly instead of
        silently corrupting the shared index.
        """
        order = stable_argsort(self.labels)
        order.setflags(write=False)
        return order

    @cached_property
    def member_slices(self) -> np.ndarray:
        """``int64[num_clusters + 1]`` — cluster ``l`` occupies
        ``member_order[member_slices[l]:member_slices[l + 1]]``."""
        ptr = np.zeros(self.num_clusters + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=ptr[1:])
        return ptr

    def members(self, label: int) -> np.ndarray:
        """Vertex ids in the cluster with compact label ``label``."""
        s = self.member_slices
        return self.member_order[s[label] : s[label + 1]]

    def members_list(self) -> list:
        """All clusters' member arrays, indexed by compact label."""
        if self.num_clusters == 0:
            return []  # np.split would fabricate one empty segment
        return np.split(self.member_order, self.member_slices[1:-1])

    def forest_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """(child, parent) arrays of all forest edges."""
        child = np.flatnonzero(self.parent >= 0)
        return child, self.parent[child]

    def tree_radii(self) -> np.ndarray:
        """Max tree distance from center, per compact label (the certified radius)."""
        radii = np.zeros(self.num_clusters, dtype=np.float64)
        np.maximum.at(radii, self.labels, self.dist_to_center)
        return radii


def _canonical_tree_parents(
    g: CSRGraph,
    dist: np.ndarray,
    parent: np.ndarray,
    owner: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Backend-independent forest parents for a race result.

    The engine guarantees identical ``dist``/``owner`` across kernels,
    but ``parent`` is only pinned when shortest paths are unique —
    equal-length claims (ubiquitous on the spanners' uniform-weight
    quotient graphs) are broken by kernel-internal schedule order.
    This pass re-picks every non-root parent as the *smallest* vertex
    certifying the label, i.e. ``min { p : dist[p] + w(p, v) == dist[v]
    and owner[p] == owner[v] }`` — the race's own parent is always a
    candidate, candidates strictly decrease ``dist`` (weights are
    positive), and owners are constant along the chain, so the result
    is a valid cluster forest with the same tree distances and a
    kernel-independent shape.  Cross-kernel spanner/forest equality
    builds on this.

    ``weights`` overrides the per-slot arc weights (the integer Dial
    races run on ``int64`` weight views of the same CSR).  Integer
    distance arrays use ``int64`` max as infinity, so the tightness
    check is evaluated only on slots whose source is reached — the sum
    must never wrap.
    """
    if g.num_arcs == 0:
        return parent
    src = g.arc_sources()
    dst = g.indices
    w = g.weights if weights is None else weights
    ok = (parent[dst] >= 0) & (owner[src] == owner[dst])
    if dist.dtype.kind in "iu":
        ok &= dist[src] != np.iinfo(np.int64).max
        idx = np.flatnonzero(ok)
        idx = idx[dist[src[idx]] + w[idx] == dist[dst[idx]]]
        out = parent.copy()
        np.minimum.at(out, dst[idx], src[idx])
        return out
    ok &= dist[src] + w == dist[dst]
    out = parent.copy()
    np.minimum.at(out, dst[ok], src[ok])
    return out


def _canonical_dial_race(
    g: CSRGraph,
    dist: np.ndarray,
    start_int: np.ndarray,
    weights: np.ndarray,
    sources: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Kernel-independent ``(owner, parent)`` for an integer Dial race.

    The engine's ``dist`` is kernel-independent, but ``owner`` is not
    when several sources achieve a vertex's raced distance exactly: the
    bucket kernels only claim on *strict* improvement, so the first
    scheduled writer keeps equal-key ties, while a heap Dijkstra (the
    test tree's reference kernel) breaks them by source rank —
    canonicalizing parents alone
    (:func:`_canonical_tree_parents`) cannot reconcile forests whose
    owners already disagree.  This pass recomputes both labels from
    ``dist`` only.  ``owner[v]`` becomes the *smallest-id* source
    achieving ``dist[v]``, found by seeding every source ``s`` with
    ``dist[s] == start_int[s]`` as its own achiever and propagating the
    minimum over tight arcs (``dist[u] + w == dist[v]``): an achiever
    of ``u`` extends to ``v`` along a tight arc, and conversely the
    last arc of any achieving path is tight with its prefix achieved,
    so the fixpoint is exactly the achiever set.  Dial weights are
    ``>= 1``, hence tight arcs strictly increase ``dist`` and one
    sweep per distance level suffices (the level count is the race's
    own round depth).  Parents are then the smallest same-owner tight
    predecessor; roots (``owner[v] == v``) keep ``-1``.  Unreached
    vertices keep ``owner = parent = -1``.
    """
    n = g.n
    int_inf = np.iinfo(np.int64).max
    own = np.full(n, n, dtype=np.int64)  # n == "no achiever yet"
    reached = dist != int_inf
    base = sources[dist[sources] == start_int[sources]]
    own[base] = base
    src = g.arc_sources()
    dst = g.indices
    ok = reached[src] & reached[dst]
    idx = np.flatnonzero(ok)
    idx = idx[dist[src[idx]] + weights[idx] == dist[dst[idx]]]
    order = np.argsort(dist[dst[idx]], kind="stable")
    idx = idx[order]
    lev = dist[dst[idx]]
    if idx.shape[0]:
        level_start = np.flatnonzero(
            np.concatenate(([True], lev[1:] != lev[:-1]))
        )
        bounds = np.append(level_start, idx.shape[0])
        for a, b in zip(bounds[:-1], bounds[1:]):
            ii = idx[a:b]
            np.minimum.at(own, dst[ii], own[src[ii]])
    parent = np.full(n, -1, dtype=np.int64)
    keep = idx[own[src[idx]] == own[dst[idx]]]
    cand = np.full(n, n, dtype=np.int64)
    np.minimum.at(cand, dst[keep], src[keep])
    nonroot = reached & (own != np.arange(n, dtype=np.int64)) & (own < n)
    parent[nonroot] = cand[nonroot]
    own[own == n] = -1
    return own, parent


def _race(
    g: CSRGraph,
    mode: int,
    sources: np.ndarray,
    start_real: np.ndarray,
    tracker: PramTracker,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Run one EST race from ``sources`` on one engine.

    ``mode`` is 0 (BFS race on ``floor`` start times, ties broken by the
    fractional start), 1 (Dial race on integer weights, then
    :func:`_canonical_dial_race`) or 2 (exact race on real start times,
    then :func:`_canonical_tree_parents`); :func:`_forest_group_modes`
    picks it.  ``sources`` are ascending vertex ids and ``start_real``
    holds every vertex's start time ``delta_max - shift``.  Returns
    length-``n`` ``(center, parent, dist_to_center)`` arrays, meaningful
    on the vertices the sources reach, and the race's round count (0
    for the exact race).
    """

    def at_sources(a: np.ndarray) -> np.ndarray:
        # n ascending ids are every vertex: no gather on the one-block path
        return a if sources.shape[0] == g.n else a[sources]

    if mode == 2:
        with tracker.phase("est_exact"):
            # the engine charges the tracker its real ledger (work =
            # arcs relaxed, rounds = relaxation rounds)
            res = shortest_paths(
                g, sources, offsets=at_sources(start_real), tracker=tracker
            )
        parent = _canonical_tree_parents(g, res.dist, res.parent, res.owner)
        return res.owner, parent, res.dist - start_real[res.owner], 0
    start_int = np.floor(start_real).astype(np.int64)
    if mode == 0:
        with tracker.phase("est_round"):
            arrival, dist_hops, parent, owner = bfs_with_start_times(
                g,
                start_time=at_sources(start_int),
                source_ids=sources,
                priority=at_sources(start_real),  # fractional tie-break
                tracker=tracker,
            )
        rounds = int(at_sources(arrival).max(initial=-1)) + 1
        return owner, parent, dist_hops.astype(np.float64), rounds
    w_int = g.weights.astype(np.int64)
    with tracker.phase("est_round"):
        res = shortest_paths(
            g, sources, offsets=at_sources(start_int), weights=w_int, delta=1,
            tracker=tracker,
        )
    owner, parent = _canonical_dial_race(g, res.dist, start_int, w_int, sources)
    dist_to_center = (res.dist - start_int[owner]).astype(np.float64)
    return owner, parent, dist_to_center, res.buckets


def est_cluster(
    g: CSRGraph,
    beta: float,
    seed: SeedLike = None,
    method: str = "auto",
    tracker: Optional[PramTracker] = None,
    shifts: Optional[np.ndarray] = None,
) -> Clustering:
    """Run EST clustering on ``g`` with parameter ``beta``.

    The single-block case of :func:`est_cluster_forest`: it draws the
    shifts, resolves its own ``auto`` and races every vertex from the
    global ``delta_max`` through the same race body, without the
    forest's group bookkeeping.  The test reference
    ``tests/oracles/est.py:est_cluster_reference`` runs a separate
    single-graph race; the two must agree output for output and ledger
    for ledger.

    Parameters
    ----------
    method:
        ``"exact"`` — shortest-path race with real shifts (the
        definition), executed on the bucket engine;
        ``"round"`` — round-synchronous race on quantized shifts
        (unweighted BFS, or Dial buckets when weights are integers);
        ``"auto"`` — ``round`` for unweighted graphs, ``exact`` otherwise.
    shifts:
        Pre-drawn shifts (tests/coupling experiments); drawn from
        ``seed`` if omitted.
    """
    if beta <= 0 or not np.isfinite(beta):
        raise ParameterError(f"beta must be a positive float, got {beta}")
    tracker = tracker or null_tracker()
    n = g.n
    if shifts is None:
        shifts = sample_shifts(n, beta, seed)
    else:
        shifts = np.asarray(shifts, dtype=np.float64)
        if shifts.shape[0] != n:
            raise ParameterError("shifts must have length n")
        # start times are max(shift) - shift: one bad shift poisons all
        check_finite("shifts", shifts)

    if method == "auto":
        method = "round" if g.is_unweighted else "exact"
    if method not in ("exact", "round"):
        raise ParameterError(f"unknown method {method!r}")
    mode = int(_forest_group_modes(g, None, 1, method)[0])

    delta_max = float(shifts.max()) if n else 0.0
    center, parent, dist_to_center, rounds = _race(
        g, mode, np.arange(n, dtype=np.int64), delta_max - shifts, tracker
    )
    return Clustering(
        center=center,
        parent=parent,
        dist_to_center=dist_to_center,
        shifts=shifts,
        beta=float(beta),
        rounds=rounds,
    )


def _forest_group_modes(
    g: CSRGraph, group_of: Optional[np.ndarray], k: int, method: str
) -> np.ndarray:
    """Resolve each group's race engine: 0 = BFS, 1 = Dial, 2 = exact.

    The one place that maps a method and block weights to an engine
    for :func:`_race`; ``group_of`` is ``None`` for a single block
    (:func:`est_cluster`, which resolves its own ``auto`` first).
    Under ``round``/``auto``, unweighted blocks race by BFS,
    integer-weighted blocks by the quantized Dial race, everything
    else exactly — and ``round`` refuses a block of the last kind.
    This ``auto`` mirrors the depth-first hopset oracle's dispatch
    (``_cluster_method`` in ``tests/oracles/hopsets.py``), NOT
    :func:`est_cluster`'s own ``auto``, which keeps integer-weighted
    graphs on the exact real-shift race: the level-synchronous
    builder's equivalence contract is with that oracle, which
    quantizes integer blocks.  An unweighted graph answers from its
    cached weight stats; otherwise one vectorized pass over the edge
    list classifies every block (a group is *unweighted* when every
    edge weighs 1 and *integer* when every weight round-trips through
    int64; edgeless groups count as unweighted, matching
    ``CSRGraph.is_unweighted`` on an empty graph).
    """
    if method == "exact":
        return np.full(k, 2, dtype=np.int64)
    if g.is_unweighted:
        return np.zeros(k, dtype=np.int64)
    w = g.edge_w
    edge_group = (
        np.zeros(g.m, dtype=np.int64) if group_of is None else group_of[g.edge_u]
    )
    # int64 round-trip, the same overflow-safe integrality check every
    # other dispatch site uses (inf / >=2**63 weights must fall through
    # to the exact engine, not wrap in Dial mode)
    with np.errstate(invalid="ignore"):
        w_rt = w.astype(np.int64).astype(np.float64)
    modes = np.zeros(k, dtype=np.int64)
    modes[edge_group[w != 1.0]] = 1
    modes[edge_group[w_rt != w]] = 2
    if method == "round" and (modes == 2).any():
        raise ParameterError(
            "round method on weighted graphs requires integer weights; "
            "use method='exact' or round the weights first"
        )
    return modes


def est_cluster_forest(
    g: CSRGraph,
    beta: float,
    group_ptr: np.ndarray,
    shifts: np.ndarray,
    method: str = "auto",
    tracker: Optional[PramTracker] = None,
) -> Clustering:
    """EST-cluster every block of a block-diagonal union in one race.

    ``g`` is a block-diagonal union (a
    :class:`~repro.graph.builders.SubgraphForest` graph or a
    :class:`~repro.graph.quotient.QuotientForestResult` graph): group
    ``j`` occupies the contiguous vertex range
    ``[group_ptr[j], group_ptr[j+1])`` and no edge crosses groups.
    Because waves can never leave a block, racing all blocks together
    is *equivalent* to clustering each block separately — but costs one
    engine schedule instead of one per block.  This is the per-level
    clustering call of both the level-synchronous hopset builder and
    the level-synchronous weighted spanner (whose uniform-weight
    quotient blocks all race on the BFS engine under ``round``/
    ``auto``).

    Equivalence with per-block clustering is exact, not just
    distributional.  The reference is the single-graph race body kept
    in the test tree (``tests/oracles/est.py:est_cluster_reference``),
    called the way the depth-first hopset oracle calls it, i.e. with
    the method pre-resolved by ``_cluster_method`` in
    ``tests/oracles/hopsets.py`` (under ``auto``, integer-weighted
    blocks take the quantized round race; see
    :func:`_forest_group_modes`).  The start times ``delta_max - shift``
    are computed with each group's *own* ``delta_max`` (quantized
    starts in round mode depend nonlinearly on it), every vertex races
    with the same priority/rank order it would have locally (blocks
    preserve relative vertex order), and groups resolving to different
    engines (BFS race for unweighted blocks, Dial for integer weights,
    bucket engine otherwise) get one :func:`_race` per engine over the
    same union, sourced only at their own blocks.  Seeded equality
    tests pin this.

    ``shifts`` must be pre-drawn (length ``n``) — the caller owns the
    per-group RNG discipline.
    """
    if beta <= 0 or not np.isfinite(beta):
        raise ParameterError(f"beta must be a positive float, got {beta}")
    if method not in EST_METHODS:
        raise ParameterError(f"unknown method {method!r}")
    tracker = tracker or null_tracker()
    n = g.n
    group_ptr = np.asarray(group_ptr, dtype=np.int64)
    k = int(group_ptr.shape[0] - 1)
    shifts = np.asarray(shifts, dtype=np.float64)
    if shifts.shape[0] != n:
        raise ParameterError("shifts must have length n")
    check_finite("shifts", shifts)
    if n == 0:
        return Clustering(
            center=np.empty(0, np.int64),
            parent=np.empty(0, np.int64),
            dist_to_center=np.empty(0, np.float64),
            shifts=shifts,
            beta=float(beta),
            rounds=0,
        )

    gsizes = np.diff(group_ptr)
    if k < 1 or group_ptr[0] != 0 or (gsizes <= 0).any() or group_ptr[-1] != n:
        raise ParameterError("group_ptr must partition [0, n) into non-empty ranges")
    group_of = np.repeat(np.arange(k, dtype=np.int64), gsizes)
    delta_max = np.maximum.reduceat(shifts, group_ptr[:-1])
    start_real = delta_max[group_of] - shifts  # >= 0, per-group origin

    modes = _forest_group_modes(g, group_of, k, method)
    center = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    dist_to_center = np.zeros(n, dtype=np.float64)
    rounds = 0

    mode_of_vertex = modes[group_of]
    for mode in (0, 1, 2):
        verts = np.flatnonzero(mode_of_vertex == mode)
        if verts.shape[0] == 0:
            continue
        own, par, dist, r = _race(g, mode, verts, start_real, tracker)
        center[verts] = own[verts]
        parent[verts] = par[verts]
        dist_to_center[verts] = dist[verts]
        rounds = max(rounds, r)

    return Clustering(
        center=center,
        parent=parent,
        dist_to_center=dist_to_center,
        shifts=shifts,
        beta=float(beta),
        rounds=rounds,
    )
