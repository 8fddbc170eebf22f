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

    Works over directed arcs so each endpoint of a cut edge contributes
    a candidate; dedupes on the key ``(vertex, neighbor cluster)``,
    keeping the lowest edge id.  Returns ids of ``g``'s edges (quotient
    ids when ``g`` is a quotient).  On a block-diagonal union this
    equals the per-block result concatenated: vertex ids are
    block-contiguous, so no (v, c) run crosses blocks.  A ``tracker``
    is charged the semisort over the inter-cluster arcs (Algorithm 2's
    cost), also when no arc crosses clusters.
    """
    src = g.arc_sources()
    dst = g.indices
    inter = labels[src] != labels[dst]
    if tracker is not None:
        charge_semisort(tracker, int(inter.sum()) + g.n)
    if not inter.any():
        return np.empty(0, np.int64)
    v_side = src[inter]
    c_side = labels[dst[inter]]
    e_side = g.edge_ids[inter]
    return e_side[first_of_runs((v_side, c_side), prefer=(e_side,))]
