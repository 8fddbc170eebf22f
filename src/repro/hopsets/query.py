"""Distance queries over hopset-augmented graphs [KS97].

Once a hopset ``E'`` exists, a (1+eps)-approximate distance is the
h-hop Bellman–Ford distance on ``E ∪ E'`` — at most O(h) rounds of
O(m + |E'|) work, which is the query cost Figure 2 compares.  ``h``
defaults to Lemma 4.2's bound for the queried distance (doubling until
the answer stabilizes when no distance estimate is available).

The evaluator is the frontier-based kernel
(:func:`repro.kernels.numpy_kernel.hop_sssp_batch`) over the hopset's
cached union CSR: round ``t`` gathers only from vertices improved in
round ``t - 1``, which is label-identical to dense synchronous
Bellman–Ford but does (and charges) only the work that can matter.
This module is the one home of the paper's h-hop query (Lemma 4.2,
Theorem 1.2's depth bound): a hopset makes few *hops* enough, it does
not make exact search cheaper.  For sustained exact-distance traffic
use :class:`repro.serve.DistanceServer`, which runs the label-setting
bucket engine on ``G`` alone behind source-row caching and batch
coalescing.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.hopsets.result import HopsetResult
from repro.kernels.numpy_kernel import hop_sssp_batch
from repro.paths.dijkstra import dijkstra_scipy
from repro.paths.engine import check_vertex_ids
from repro.pram.tracker import PramTracker, null_tracker


def exact_distance(g: CSRGraph, s: int, t: int) -> float:
    """Ground truth s-t distance (scipy Dijkstra)."""
    check_vertex_ids(np.asarray([s, t], dtype=np.int64), g.n, "vertex")
    return float(dijkstra_scipy(g, s)[t])


def suggested_hop_bound(hopset: HopsetResult, d_estimate: float) -> int:
    """Lemma 4.2's hop budget for a path of (estimated) length ``d``.

    ``h = n^(1/delta) * n_final^(1-1/delta) * beta0 * d``, multiplied by
    the base-case segment length ``n_final``, with a small floor so
    trivial queries still get a few rounds.
    """
    n = hopset.graph.n
    meta = hopset.meta
    delta = meta.get("delta", 1.1)
    beta0 = meta.get("beta0", 1.0 / max(n, 2))
    nf = meta.get("n_final", 2.0)
    cuts = (float(n) ** (1.0 / delta)) * (nf ** (1.0 - 1.0 / delta)) * beta0 * max(d_estimate, 1.0)
    h = int(np.ceil(cuts * nf + 3 * max(cuts, 1.0))) + 8
    return min(h, max(n, 2))


def _frontier_rounds(
    hopset: "HopsetResult",
    sources: np.ndarray,
    h: int,
    tracker: PramTracker,
    state: Optional[Tuple[np.ndarray, ...]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One frontier-kernel call over the hopset's cached union CSR,
    with each executed round charged to the ledger at the arcs it
    actually gathered (dense Bellman–Ford charged ``|arcs|`` per round;
    the frontier kernel's whole point is doing — and charging — less).
    """
    indptr, indices, weights = hopset.union_csr()
    n = hopset.graph.n
    run_ptr = np.asarray([0, sources.shape[0]], dtype=np.int64)
    dist, hops, round_arcs, frontier = hop_sssp_batch(
        indptr, indices, weights, n, sources, run_ptr, h, state=state
    )
    for arcs in round_arcs:
        tracker.parallel_round(work=arcs)
    return dist, hops, frontier


def hopset_distance(
    hopset: HopsetResult,
    s: int,
    t: int,
    h: Optional[int] = None,
    tracker: Optional[PramTracker] = None,
) -> Tuple[float, int]:
    """(1+eps)-approximate s-t distance using the hopset.

    Returns ``(distance, hops_used)``.  When ``h`` is omitted the hop
    budget doubles (starting from Lemma 4.2's estimate for small d)
    until the estimate stops improving — never exceeding ``n``.

    The doubling loop *warm-starts*: a synchronous schedule's
    budget-``h`` prefix is the same whatever the final budget, so each
    enlargement resumes from the previous round's ``dist``/``hops`` and
    frontier instead of rerunning Bellman–Ford from round one.  Every
    hop is therefore executed (and charged) exactly once — total rounds
    equal the convergence round, not the sum of all doubled budgets.
    """
    tracker = tracker or null_tracker()
    n = hopset.graph.n
    check_vertex_ids(np.asarray([s, t], dtype=np.int64), n, "vertex")
    sources = np.asarray([s], dtype=np.int64)
    if h is not None:
        with tracker.phase("query"):
            dist, hops, _ = _frontier_rounds(hopset, sources, h, tracker)
        return float(dist[t]), int(hops[t])

    budget = max(8, suggested_hop_bound(hopset, 1.0))
    state = None
    while True:
        with tracker.phase("query"):
            dist, hops, frontier = _frontier_rounds(
                hopset, sources, budget, tracker, state=state
            )
        # converged: the last round improved nothing, so no deeper
        # budget can change any label
        if frontier.shape[0] == 0 or budget >= n:
            break
        state = (dist, hops, frontier, budget)
        budget = min(2 * budget, n)
    return float(dist[t]), int(hops[t])
