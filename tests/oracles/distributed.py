"""Distributed unweighted spanner (the Section 2.2 port of Algorithm 2).

Section 2.2 of the paper: "Our spanner construction for unweighted
graphs can also be ported to this distributed setting with similar
guarantees, as it employs breadth first search, which admits a simple
implementation in synchronized distributed networks."  This module
runs that port on the message-passing simulator in
:mod:`~oracles.network`, one Python handler per node per round.  It is
a second implementation of :func:`repro.spanners.unweighted_spanner`
and its oracle: under shared shifts both keep the same edges
(``tests/test_distributed.py``).

Protocol, in synchronous rounds with O(1)-word messages:

1. **Shifted BFS race** — every node ``v`` knows its integer start time
   ``floor(delta_max - delta_v)`` (shared randomness).  A node claims
   itself when its start time arrives and it is unclaimed; claimed
   nodes announce ``(center, priority, dist)`` to neighbors once; an
   unclaimed node adopts the minimum-priority claim it hears, recording
   the sender as its forest parent.  This is exactly the round-
   synchronous EST clustering, so the distributed run reproduces the
   centralized Algorithm 2 *edge for edge* under coupled randomness
   (tested).
2. **Boundary exchange** — one round in which every node broadcasts its
   center; each node then locally keeps, per adjacent foreign cluster,
   its minimum-id incident edge.

Round count: O(max start + radius) = O(k log n) w.h.p. — the BFS depth
the paper's distributed claim rests on.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.clustering.shifts import sample_shifts
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.rng import SeedLike
from repro.spanners.result import SpannerResult
from repro.spanners.unweighted import _stretch_bound, spanner_beta

from .est import edge_id_lookup
from .network import NodeProgram, SyncNetwork


class _RaceProgram(NodeProgram):
    """Phase 1: the shifted-start BFS race."""

    def __init__(self, start_int: np.ndarray, priority: np.ndarray):
        self.start_int = start_int
        self.priority = priority

    def init(self, node: int, net: SyncNetwork) -> None:
        st = net.state[node]
        st["claimed"] = False
        st["center"] = -1
        st["parent"] = -1
        st["prio"] = float("inf")
        st["announced"] = False

    def on_round(self, node: int, inbox: List[Tuple[int, Any]], net: SyncNetwork) -> None:
        st = net.state[node]
        t = net.rounds  # 0-based logical time of this round

        if not st["claimed"] and inbox:
            # adopt the minimum-priority claim; sender becomes parent
            best = min(inbox, key=lambda m: (m[1][1], m[0]))
            sender, (center, prio, _dist) = best
            st.update(claimed=True, center=int(center), parent=int(sender), prio=float(prio))

        if not st["claimed"] and self.start_int[node] <= t:
            st.update(claimed=True, center=node, parent=-1, prio=float(self.priority[node]))

        if st["claimed"] and not st["announced"]:
            net.broadcast(node, (st["center"], st["prio"], 0))
            st["announced"] = True

    def is_done(self, node: int, net: SyncNetwork) -> bool:
        return bool(net.state[node]["claimed"] and net.state[node]["announced"])


class _BoundaryProgram(NodeProgram):
    """Phase 2: one broadcast of centers, then local boundary selection."""

    def init(self, node: int, net: SyncNetwork) -> None:
        net.state[node]["nbr_centers"] = {}
        net.broadcast(node, (net.state[node]["center"],))

    def on_round(self, node: int, inbox: List[Tuple[int, Any]], net: SyncNetwork) -> None:
        for sender, (center,) in inbox:
            net.state[node]["nbr_centers"][sender] = int(center)

    def is_done(self, node: int, net: SyncNetwork) -> bool:
        return len(net.state[node]["nbr_centers"]) == len(net.neighbors(node))


def distributed_unweighted_spanner(
    g: CSRGraph,
    k: float,
    seed: SeedLike = None,
    shifts: Optional[np.ndarray] = None,
    congest_words: int = 4,
) -> Tuple[SpannerResult, SyncNetwork]:
    """Run the distributed Algorithm 2; returns (spanner, network).

    The network object carries the round/message accounting
    (``net.rounds``, ``net.total_messages``, ``net.history``).
    """
    if not g.is_unweighted:
        raise ParameterError("the distributed port covers unweighted graphs (Section 2.2)")
    beta = spanner_beta(g.n, k)
    if shifts is None:
        shifts = sample_shifts(g.n, beta, seed)
    else:
        shifts = np.asarray(shifts, dtype=np.float64)
        if shifts.shape[0] != g.n:
            raise ParameterError("shifts must have length n")

    delta_max = float(shifts.max()) if g.n else 0.0
    start_real = delta_max - shifts
    start_int = np.floor(start_real).astype(np.int64)

    net = SyncNetwork(g, congest_words=congest_words)
    net.run(_RaceProgram(start_int, start_real))
    net.run(_BoundaryProgram())

    center = np.asarray([net.state[v]["center"] for v in range(g.n)], dtype=np.int64)
    parent = np.asarray([net.state[v]["parent"] for v in range(g.n)], dtype=np.int64)

    # forest edge ids
    child = np.flatnonzero(parent >= 0)
    forest_ids = edge_id_lookup(g, child, parent[child])

    # boundary: per (node, foreign neighbor cluster) the min-id edge,
    # computed from each node's local neighbor-center table
    kept: List[int] = []
    for v in range(g.n):
        nbr_centers = net.state[v]["nbr_centers"]
        if not nbr_centers:
            continue
        nbrs = np.asarray(sorted(nbr_centers), dtype=np.int64)
        ids = edge_id_lookup(g, np.full(nbrs.shape[0], v, dtype=np.int64), nbrs)
        best: dict[int, int] = {}
        for u, eid in zip(nbrs, ids):
            c_u = nbr_centers[int(u)]
            if c_u != center[v]:
                if c_u not in best or eid < best[c_u]:
                    best[c_u] = int(eid)
        kept.extend(best.values())

    edge_ids = np.unique(np.concatenate([forest_ids, np.asarray(kept, dtype=np.int64)]))
    return (
        SpannerResult(
            graph=g,
            edge_ids=edge_ids,
            stretch_bound=_stretch_bound(g.n, k, beta),
            meta={
                "k": float(k),
                "rounds": float(net.rounds),
                "messages": float(net.total_messages),
                "num_clusters": float(np.unique(center).shape[0]),
            },
        ),
        net,
    )
