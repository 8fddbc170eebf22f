"""Delta-stepping parallel SSSP [Meyer-Sanders] — the practical parallel
shortest-path baseline.

Included as the "what practitioners actually run" comparator for the
Theorem 1.2 pipeline.  Since the engine grew a true light/heavy edge
split, this module is a thin front-end over
:func:`repro.paths.engine.shortest_paths`: real-valued weights go
straight through the split bucket kernels (no quantization detour) —
each *phase* settles one width-``delta`` bucket by repeatedly relaxing
its light edges (``w <= delta``), then relaxes heavy edges once.  PRAM
accounting comes from the engine's ledger: every inner light-edge
iteration and the heavy relaxation are rounds; total depth ~
``(largest distance / delta) * (light iterations per bucket)``, the
classic tradeoff in ``delta``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.pram.tracker import PramTracker, null_tracker


def delta_stepping(
    g: CSRGraph,
    source: int,
    delta: Optional[float] = None,
    tracker: Optional[PramTracker] = None,
) -> Tuple[np.ndarray, int]:
    """Single-source shortest paths by delta-stepping.

    Returns ``(dist, phases)`` where ``phases`` is the number of bucket
    phases (the outer sequential dimension of the algorithm's depth).
    ``delta`` defaults to the engine's ``max_w / avg_degree``
    heuristic (:meth:`CSRGraph.suggest_delta`), as in
    :func:`repro.paths.engine.shortest_paths`.
    """
    from repro.paths.engine import shortest_paths

    tracker = tracker or null_tracker()
    res = shortest_paths(
        g,
        source,
        offsets=np.zeros(1, dtype=np.float64),  # force real-weight mode
        delta=delta,
        tracker=tracker,
    )
    return res.dist.astype(np.float64, copy=False), res.buckets
