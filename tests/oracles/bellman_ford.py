"""Dense synchronous h-hop Bellman–Ford over flat arc arrays.

The reference the frontier kernel behind
:func:`repro.paths.hop_limited_distances` is pinned against: ``h``
rounds, each relaxing every live arc of ``E ∪ E'`` at once (O(|arcs|)
work per round, one PRAM round of depth), as Klein–Subramanian answer
queries given a hopset.  :class:`ArcSet` holds the directed arcs;
hopset edges are undirected, so :func:`combine_arcs` adds both
directions.
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


def dense_hop_distances(
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
    ``inf``) and the charge is the full arc count.
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
