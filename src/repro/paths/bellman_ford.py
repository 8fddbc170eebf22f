"""Hop-limited distances over a CSR (graph edges + hopset edges).

The defining quantity of a hopset is the *h-hop distance*
``dist^h_{E ∪ E'}(u, v)`` — the weight of the lightest path using at
most ``h`` edges from the union of the original edges and the hopset
edges.  Its parallel evaluator is synchronous Bellman–Ford: at most
``h`` rounds, one PRAM round of depth each.  This is also how
Klein–Subramanian answer queries given a hopset, so the benchmarks'
"query work/depth" columns come straight from this module's tracker
charges.

:func:`hop_limited_distances` is the one front door for every
hop-limited query.  It takes a CSR triple ``(indptr, indices,
weights)`` — :meth:`repro.hopsets.result.HopsetResult.union_csr` for
``G ∪ E'``, or ``(g.indptr, g.indices, g.weights)`` for ``G`` alone —
and runs the frontier kernel
(:func:`repro.kernels.numpy_kernel.hop_sssp_batch`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.numpy_kernel import hop_sssp_batch
from repro.paths.engine import check_vertex_ids
from repro.pram.tracker import PramTracker, null_tracker

CSRArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


def hop_limited_distances(
    csr: CSRArrays,
    sources: np.ndarray,
    h: int,
    tracker: Optional[PramTracker] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Synchronous h-round Bellman–Ford from multiple sources.

    Returns ``(dist, hops, rounds_used)`` where ``dist[v]`` is the
    minimum weight over paths with at most ``h`` arcs, and ``hops[v]``
    the arc count of the path achieving it (the round it stabilized).
    The search stops early once a round improves nothing; that round
    is counted, so ``rounds_used <= h``.

    Ledger: each executed round is charged at the arcs it gathered —
    the out-arcs of the vertices improved in the round before.
    """
    tracker = tracker or null_tracker()
    indptr, indices, weights = csr
    n = int(indptr.shape[0]) - 1
    sources = np.asarray(sources, dtype=np.int64)
    check_vertex_ids(sources, n)
    run_ptr = np.asarray([0, sources.shape[0]], dtype=np.int64)
    dist, hops, round_arcs, _ = hop_sssp_batch(
        indptr, indices, weights, n, sources, run_ptr, h
    )
    for arcs in round_arcs:
        tracker.parallel_round(work=arcs)
    return dist, hops, len(round_arcs)
