"""Synchronized distributed (CONGEST-style) simulation.

Section 2.2 of the paper: "Our spanner construction for unweighted
graphs can also be ported to this distributed setting with similar
guarantees, as it employs breadth first search, which admits a simple
implementation in synchronized distributed networks."

This subpackage makes that claim executable: a synchronous
message-passing simulator (:mod:`~repro.distributed.engine`) in which
each vertex is a node exchanging O(log n)-word messages with its
neighbors per round, and the distributed EST spanner
(:mod:`~repro.distributed.spanner`) built on it.  Tests check the
distributed run produces *exactly* the same spanner as the centralized
Algorithm 2 under coupled randomness, with round counts matching the
O(k log* n)-style depth claim (here: O(k log n) BFS rounds, since the
simulator is synchronous message passing, not CRCW).
"""

from repro.distributed.engine import SyncNetwork, NodeProgram, RoundStats
from repro.distributed.spanner import distributed_unweighted_spanner

__all__ = [
    "SyncNetwork",
    "NodeProgram",
    "RoundStats",
    "distributed_unweighted_spanner",
]
