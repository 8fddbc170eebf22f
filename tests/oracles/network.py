"""Synchronous message-passing network simulator (CONGEST flavor).

Model: computation proceeds in global rounds.  In each round every
node (vertex of the communication graph) reads the messages delivered
to it at the end of the previous round, updates local state, and emits
messages to neighbors.  The simulator counts rounds and total messages;
a CONGEST-style cap on per-edge-per-round payload size can be asserted.

The engine deliberately executes node handlers one at a time in vertex
order *within* a round but delivers all messages simultaneously at the
round boundary — the standard synchronous-network semantics, making
executions deterministic and independent of iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.graph.csr import CSRGraph


@dataclass
class RoundStats:
    """Per-round accounting: messages sent and nodes that acted."""

    round_no: int
    messages: int
    active_nodes: int


class NodeProgram:
    """Base class for per-node behavior.

    Subclasses override :meth:`init` and :meth:`on_round`.  Message
    payloads should be small tuples of ints/floats (CONGEST: O(log n)
    bits ~ O(1) words); the engine measures payload word counts.
    """

    def init(self, node: int, net: "SyncNetwork") -> None:
        """Called once before round 0; may send initial messages."""

    def on_round(self, node: int, inbox: List[Tuple[int, Any]], net: "SyncNetwork") -> None:
        """Called with ``(sender, payload)`` pairs each round the node
        is *active* — it has mail or votes not-done.  A node voting
        done with an empty inbox is skipped (it could not act under
        the synchronous semantics anyway), so programs must not rely
        on idle per-round ticks."""
        raise NotImplementedError

    def is_done(self, node: int, net: "SyncNetwork") -> bool:
        """Node-local termination vote; the run stops when all vote done
        and no messages are in flight."""
        return True


class SyncNetwork:
    """The synchronous network: topology + state + message queues."""

    def __init__(self, g: CSRGraph, congest_words: Optional[int] = 4):
        self.graph = g
        self.congest_words = congest_words
        self.state: List[Dict[str, Any]] = [dict() for _ in range(g.n)]
        self._pending: List[Tuple[int, int, Any]] = []
        self.rounds: int = 0
        self.total_messages: int = 0
        self.history: List[RoundStats] = []

    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> np.ndarray:
        return self.graph.neighbors(node)

    def send(self, src: int, dst: int, payload: Any) -> None:
        """Queue a message for delivery at the next round boundary.

        ``dst`` must be a neighbor of ``src`` (nodes only talk over
        edges of the communication graph).
        """
        if dst not in set(int(x) for x in self.graph.neighbors(src)):
            raise ParameterError(f"node {src} cannot send to non-neighbor {dst}")
        self._check_payload(payload)
        self._pending.append((src, dst, payload))

    def broadcast(self, src: int, payload: Any) -> None:
        """Send the same payload to every neighbor (one message each)."""
        self._check_payload(payload)
        for dst in self.graph.neighbors(src):
            self._pending.append((src, int(dst), payload))

    def _check_payload(self, payload: Any) -> None:
        if self.congest_words is None:
            return
        words = 1 if not isinstance(payload, (tuple, list)) else len(payload)
        if words > self.congest_words:
            raise ParameterError(
                f"payload of {words} words exceeds the CONGEST cap "
                f"({self.congest_words})"
            )

    # ------------------------------------------------------------------
    def run(self, program: NodeProgram, max_rounds: int = 10**6) -> List[RoundStats]:
        """Execute until quiescence (all done, no messages) or max_rounds.

        Only *active* nodes — those with mail or voting not-done — get
        their handler invoked each round; a done node with an empty
        inbox can never act under the synchronous semantics, so
        skipping it changes nothing observable while dropping the
        per-round *handler* cost from Theta(n) to Theta(active) (the
        done-vote poll itself remains one linear scan per round).
        """
        n = self.graph.n
        for v in range(n):
            program.init(v, self)
        while self.rounds < max_rounds:
            # deliver
            inboxes: Dict[int, List[Tuple[int, Any]]] = {}
            for src, dst, payload in self._pending:
                inboxes.setdefault(dst, []).append((src, payload))
            delivered = len(self._pending)
            self.total_messages += delivered
            self._pending = []

            waiting = [v for v in range(n) if not program.is_done(v, self)]
            if delivered == 0 and not waiting:
                break

            actors = sorted(set(inboxes).union(waiting))
            for v in actors:
                # fresh list per mail-less node: programs may scratch on
                # their inbox, so no sharing
                program.on_round(v, inboxes.get(v) or [], self)
            self.rounds += 1
            self.history.append(
                RoundStats(
                    round_no=self.rounds, messages=delivered, active_nodes=len(actors)
                )
            )
        return self.history
