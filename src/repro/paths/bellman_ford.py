"""Hop-limited Bellman–Ford over arc sets (graph edges + hopset edges).

The defining quantity of a hopset is the *h-hop distance*
``dist^h_{E ∪ E'}(u, v)`` — the weight of the lightest path using at
most ``h`` edges from the union of the original edges and the hopset
edges.  The natural parallel evaluator is synchronous Bellman–Ford:
``h`` rounds, each relaxing every arc once (O(|arcs|) work per round,
one PRAM round of depth).  This is also exactly how Klein–Subramanian
answer queries given a hopset, so the benchmark's "query work/depth"
columns come straight from this module's tracker charges.

:class:`ArcSet` is the directed arc-array container used throughout the
hopset code; hopset edges are undirected so :func:`combine_arcs` adds
both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.pram.tracker import PramTracker, null_tracker

INF = np.inf


@dataclass(frozen=True)
class ArcSet:
    """Directed arcs ``src[i] -> dst[i]`` with weight ``w[i]`` on n vertices."""

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray

    @property
    def size(self) -> int:
        return int(self.src.shape[0])

    def __post_init__(self) -> None:
        if not (self.src.shape == self.dst.shape == self.w.shape):
            raise ValueError("arc arrays must have equal shapes")


def arcs_from_graph(g: CSRGraph) -> ArcSet:
    """Both directions of every edge of ``g`` as an ArcSet."""
    return ArcSet(
        n=g.n,
        src=np.concatenate([g.edge_u, g.edge_v]),
        dst=np.concatenate([g.edge_v, g.edge_u]),
        w=np.concatenate([g.edge_w, g.edge_w]),
    )


def combine_arcs(base: ArcSet, eu: np.ndarray, ev: np.ndarray, ew: np.ndarray) -> ArcSet:
    """Add undirected extra edges (e.g. a hopset) to an arc set."""
    eu = np.asarray(eu, dtype=np.int64)
    ev = np.asarray(ev, dtype=np.int64)
    ew = np.asarray(ew, dtype=np.float64)
    return ArcSet(
        n=base.n,
        src=np.concatenate([base.src, eu, ev]),
        dst=np.concatenate([base.dst, ev, eu]),
        w=np.concatenate([base.w, ew, ew]),
    )


def arcset_to_csr(arcs: ArcSet) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compile an :class:`ArcSet` into CSR arrays ``(indptr, indices, w)``.

    The frontier-based h-hop kernel
    (:func:`repro.kernels.numpy_kernel.hop_sssp_batch`) gathers arcs
    per *vertex*, so the flat arc list is grouped by source once via a
    stable counting sort.  Callers cache the result per arc set (see
    :meth:`repro.hopsets.result.HopsetResult.union_csr`).
    """
    if arcs.size == 0:
        return (
            np.zeros(arcs.n + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    order = np.argsort(arcs.src, kind="stable")
    counts = np.bincount(arcs.src, minlength=arcs.n)
    indptr = np.zeros(arcs.n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return (
        indptr,
        arcs.dst[order].astype(np.int64, copy=False),
        arcs.w[order].astype(np.float64, copy=False),
    )


def hop_limited_distances(
    arcs: ArcSet,
    sources: np.ndarray,
    h: int,
    tracker: Optional[PramTracker] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Synchronous h-round Bellman–Ford from multiple sources.

    Returns ``(dist, hops, rounds_used)`` where ``dist[v]`` is the
    minimum weight over paths with at most ``h`` arcs, and ``hops[v]``
    the arc count of the path achieving it (the round it stabilized).

    Synchronous semantics (round ``k`` reads round ``k-1``'s array) are
    essential: in-place relaxation would let weight improvements ride
    along and report fewer rounds than true hop counts.

    The loop exits once a round changes nothing — the remaining rounds
    cannot change anything either, so the h-hop semantics are preserved
    while saving work; the ledger only charges executed rounds.

    Ledger: each executed round charges the arcs it actually relaxed —
    arcs whose source is still at ``inf`` contribute no candidate, so
    they are masked out of the gather and out of the charge (the PRAM
    processors assigned to them are idle).  Once every vertex is
    labeled the mask is skipped entirely (labels never return to
    ``inf``) and the charge is the full arc count, as before.
    """
    tracker = tracker or null_tracker()
    sources = np.asarray(sources, dtype=np.int64)
    n = arcs.n
    dist = np.full(n, INF, dtype=np.float64)
    dist[sources] = 0.0
    hops = np.zeros(n, dtype=np.int64)

    rounds = 0
    all_reached = False
    for _ in range(h):
        src_dist = dist[arcs.src]
        if all_reached:
            cand = src_dist + arcs.w
            dst = arcs.dst
            relaxed = arcs.size
        else:
            live = src_dist < INF
            if live.all():
                all_reached = True  # monotone: stays true, skip the mask
                cand = src_dist + arcs.w
                dst = arcs.dst
                relaxed = arcs.size
            else:
                cand = src_dist[live] + arcs.w[live]
                dst = arcs.dst[live]
                relaxed = int(live.sum())
        new = dist.copy()
        np.minimum.at(new, dst, cand)
        tracker.parallel_round(work=relaxed)
        rounds += 1
        improved = new < dist
        if not improved.any():
            break
        hops[improved] = rounds
        dist = new
    return dist, hops, rounds


def hop_limited_with_parents(
    arcs: ArcSet,
    sources: np.ndarray,
    h: int,
    tracker: Optional[PramTracker] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synchronous h-round Bellman–Ford that also returns the winning arc.

    Returns ``(dist, hops, parent_arc)`` where ``parent_arc[v]`` is the
    index (into ``arcs``) of the final relaxation that set ``dist[v]``
    (-1 at sources/unreached).  Walking ``parent_arc`` backwards yields
    the achieving path through ``E ∪ E'`` — the input to
    :func:`repro.hopsets.paths.expand_path`.
    """
    tracker = tracker or null_tracker()
    sources = np.asarray(sources, dtype=np.int64)
    n = arcs.n
    dist = np.full(n, INF, dtype=np.float64)
    dist[sources] = 0.0
    hops = np.zeros(n, dtype=np.int64)
    parent_arc = np.full(n, -1, dtype=np.int64)

    rounds = 0
    for _ in range(h):
        cand = dist[arcs.src] + arcs.w
        new = dist.copy()
        np.minimum.at(new, arcs.dst, cand)
        tracker.parallel_round(work=arcs.size)
        rounds += 1
        improved_v = new < dist
        if not improved_v.any():
            break
        # identify a winning arc per improved vertex: among arcs whose
        # candidate equals the new value, pick the smallest index
        winners = np.flatnonzero(cand <= new[arcs.dst] + 0.0)
        # (cand == new[dst]) selects achieving arcs; restrict to improved
        ach = winners[improved_v[arcs.dst[winners]] & (cand[winners] == new[arcs.dst[winners]])]
        order = np.argsort(arcs.dst[ach], kind="stable")
        ach = ach[order]
        dsts = arcs.dst[ach]
        first = np.empty(ach.shape[0], dtype=bool)
        if ach.size:
            first[0] = True
            np.not_equal(dsts[1:], dsts[:-1], out=first[1:])
            chosen = ach[first]
            parent_arc[arcs.dst[chosen]] = chosen
        hops[improved_v] = rounds
        dist = new
    return dist, hops, parent_arc


def extract_arc_path(arcs: ArcSet, parent_arc: np.ndarray, t: int) -> list[int]:
    """Walk ``parent_arc`` from ``t`` back to a source; returns arc indices
    in path order (source -> t).  Empty when ``t`` is a source."""
    out: list[int] = []
    v = int(t)
    guard = 0
    while parent_arc[v] != -1:
        a = int(parent_arc[v])
        out.append(a)
        v = int(arcs.src[a])
        guard += 1
        if guard > arcs.n + 1:
            raise ValueError("parent_arc walk exceeded n steps (cycle?)")
    out.reverse()
    return out
