"""Distributed weighted SSSP (synchronous Bellman–Ford relaxation).

Extends the Section 2.2 distributed port to weighted graphs: each node
keeps a tentative ``(dist, owner)`` label, adopts the best offer heard
over its incident edges, and re-announces only when its label improves
— the textbook CONGEST Bellman–Ford whose round count is the hop length
of the shortest-path forest (the distributed analogue of the bucket
engine's relaxation rounds; the engine settles a whole bucket of these
per round, which is exactly the depth the PRAM side saves).

The centralized bucket engine (:func:`repro.paths.engine.shortest_paths`)
is the correctness oracle: :func:`distributed_sssp` reproduces its
distances exactly, and its owners wherever distances are tie-free
(the tests pin both on random real weights).  When two sources reach
a vertex at *exactly* equal distance the schedules may crown
different winners: the engine settles buckets in distance order while
the network races in hop order, so whichever equal-distance offer
arrives in an earlier round sticks — both are valid arg-mins.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.distributed.engine import NodeProgram, SyncNetwork
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph


class _SSSPProgram(NodeProgram):
    """Per-node Bellman–Ford relaxation with (dist, owner, rank) labels.

    Messages are ``(dist, owner, rank)`` — 3 words, within the CONGEST
    cap; ``rank`` (the source's position in the caller's source array)
    keeps tie-breaking identical to the centralized engine.
    """

    def __init__(self, g: CSRGraph, sources: np.ndarray, offsets: np.ndarray):
        self.start: dict[int, Tuple[float, int]] = {}
        for rank, (s, off) in enumerate(zip(sources, offsets)):
            key = (float(off), rank)
            cur = self.start.get(int(s))
            if cur is None or key < cur:
                self.start[int(s)] = key
        # per-node incident weight table for O(1) relaxation on receive
        self._w = [
            {int(u): float(w) for u, w in zip(g.neighbors(v), g.neighbor_weights(v))}
            for v in range(g.n)
        ]

    def init(self, node: int, net: SyncNetwork) -> None:
        st = net.state[node]
        started = self.start.get(node)
        if started is not None:
            off, rank = started
            st.update(dist=off, owner=node, rank=rank, parent=-1)
            net.broadcast(node, (off, node, rank))
        else:
            st.update(dist=float("inf"), owner=-1, rank=np.iinfo(np.int64).max, parent=-1)

    def on_round(self, node: int, inbox: List[Tuple[int, Any]], net: SyncNetwork) -> None:
        st = net.state[node]
        w = self._w[node]
        # concurrent offers this round resolve by min (dist, rank,
        # sender) — the engine's claim rule; across rounds only a
        # strictly smaller distance displaces the held label
        best = None
        for sender, (d, owner, rank) in inbox:
            cand = (d + w[sender], rank, sender, int(owner))
            if best is None or cand < best:
                best = cand
        if best is not None and best[0] < st["dist"]:
            dist, rank, sender, owner = best
            st.update(dist=dist, owner=owner, rank=rank, parent=sender)
            net.broadcast(node, (dist, owner, rank))

    def is_done(self, node: int, net: SyncNetwork) -> bool:
        return True  # quiescence = no improving message in flight


def distributed_sssp(
    g: CSRGraph,
    sources: np.ndarray,
    offsets: Optional[np.ndarray] = None,
    congest_words: int = 4,
    max_rounds: int = 10**6,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, SyncNetwork]:
    """Run the synchronous weighted SSSP protocol.

    Returns ``(dist, parent, owner, network)`` matching the engine's
    labeling (``inf``/-1 where unreached); the network carries the
    round and message accounting.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if offsets is None:
        offsets = np.zeros(sources.shape[0], dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if offsets.shape[0] != sources.shape[0]:
        raise ParameterError("offsets must match sources in length")

    net = SyncNetwork(g, congest_words=congest_words)
    net.run(_SSSPProgram(g, sources, offsets), max_rounds=max_rounds)

    dist = np.asarray([net.state[v]["dist"] for v in range(g.n)], dtype=np.float64)
    parent = np.asarray([net.state[v]["parent"] for v in range(g.n)], dtype=np.int64)
    owner = np.asarray([net.state[v]["owner"] for v in range(g.n)], dtype=np.int64)
    return dist, parent, owner, net
