"""Distance queries over hopset-augmented graphs [KS97].

Once a hopset ``E'`` exists, a (1+eps)-approximate distance is the
h-hop Bellman–Ford distance on ``E ∪ E'`` — at most O(h) rounds of
O(m + |E'|) work, which is the query cost Figure 2 compares.
:func:`suggested_hop_bound` gives Lemma 4.2's budget for a distance
estimate; without a budget, :func:`hopset_distance` searches until a
round improves nothing, never past ``n`` rounds.

The evaluator is :func:`repro.paths.hop_limited_distances` over the
hopset's cached union CSR: round ``t`` gathers only from vertices
improved in round ``t - 1``, which is label-identical to dense
synchronous Bellman–Ford but does (and charges) only the work that can
matter.  This module is the one home of the paper's h-hop query
(Lemma 4.2, Theorem 1.2's depth bound): a hopset makes few *hops*
enough, it does not make exact search cheaper.  For sustained
exact-distance traffic use :class:`repro.serve.DistanceServer`, which
runs the label-setting bucket engine on ``G`` alone behind source-row
caching and batch coalescing.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.hopsets.result import HopsetResult
from repro.paths.bellman_ford import hop_limited_distances
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


def hopset_distance(
    hopset: HopsetResult,
    s: int,
    t: int,
    h: Optional[int] = None,
    tracker: Optional[PramTracker] = None,
) -> Tuple[float, int]:
    """(1+eps)-approximate s-t distance using the hopset.

    Returns ``(distance, hops_used)``.  When ``h`` is omitted the
    search runs until a round improves nothing — never more than ``n``
    rounds, which always suffice.
    """
    tracker = tracker or null_tracker()
    n = hopset.graph.n
    check_vertex_ids(np.asarray([t], dtype=np.int64), n, "target")
    with tracker.phase("query"):
        dist, hops, _ = hop_limited_distances(
            hopset.union_csr(), np.asarray([s]), n if h is None else h, tracker
        )
    return float(dist[t]), int(hops[t])
