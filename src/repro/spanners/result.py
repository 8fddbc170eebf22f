"""Common result container for all spanner constructions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.builders import subgraph_by_edge_ids
from repro.graph.dedup import first_of_runs
from repro.pram.primitives import charge_semisort
from repro.pram.tracker import PramTracker


@dataclass(frozen=True)
class SpannerResult:
    """A spanner expressed as a set of edge ids of the input graph.

    Attributes
    ----------
    graph:
        The input graph the ids refer to.
    edge_ids:
        Sorted unique ids of the edges kept in the spanner.
    stretch_bound:
        The stretch factor the construction guarantees (w.h.p.).
    meta:
        Construction statistics (cluster counts, per-phase sizes, ...).
    """

    graph: CSRGraph
    edge_ids: np.ndarray
    stretch_bound: float
    meta: Dict[str, float] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of edges in the spanner."""
        return int(self.edge_ids.shape[0])

    @property
    def density(self) -> float:
        """Edges kept per vertex."""
        return self.size / max(self.graph.n, 1)

    def subgraph(self) -> CSRGraph:
        """Materialize the spanner as a standalone graph on the same vertices."""
        return subgraph_by_edge_ids(self.graph, self.edge_ids)

    def total_weight(self) -> float:
        return float(self.graph.edge_w[self.edge_ids].sum())


def boundary_edge_ids(
    g: CSRGraph, labels: np.ndarray, tracker: Optional[PramTracker] = None
) -> np.ndarray:
    """One kept edge per (boundary vertex, adjacent cluster) pair.

    One pass over the edge list finds the cut edges (endpoints in
    different clusters); each offers itself to both endpoints, and
    every ``(vertex, neighbor cluster)`` pair keeps its lowest edge
    id.  Returns ids of ``g``'s edges (quotient ids when ``g`` is a
    quotient), ordered by ``(vertex, neighbor cluster)``.  On a
    block-diagonal union this equals the per-block result
    concatenated: vertex ids are block-contiguous, so no pair's run
    crosses blocks.  A ``tracker`` is charged the semisort over the
    ``2 * cut`` inter-cluster arcs (Algorithm 2's cost), also when no
    edge is cut.
    """
    lu = labels[g.edge_u]
    lv = labels[g.edge_v]
    cut = np.flatnonzero(lu != lv)
    if tracker is not None:
        charge_semisort(tracker, 2 * int(cut.shape[0]) + g.n)
    if not cut.shape[0]:
        return np.empty(0, np.int64)
    # rows 2i and 2i + 1 are the i-th cut edge seen from either end, so
    # rows ascend by edge id; a (vertex, cluster, edge) row is unique,
    # and the stable order by (vertex, cluster) lists each pair's
    # lowest id first
    v_side = np.stack((g.edge_u[cut], g.edge_v[cut]), axis=1).ravel()
    c_side = np.stack((lv[cut], lu[cut]), axis=1).ravel()
    return cut[first_of_runs((v_side, c_side)) >> 1]
