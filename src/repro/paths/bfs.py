"""Level-synchronous parallel BFS with vectorized frontier expansion.

One BFS level = one PRAM round: gather all arcs out of the frontier,
claim unvisited endpoints, resolve concurrent claims.  Work per round is
the number of frontier arcs — total O(m) over the whole search — and
depth is (number of levels) x (depth per round), exactly the accounting
the paper uses (Lemma 2.1, [UY91]).

Concurrent-claim resolution implements the paper's "arbitrary tie
breaking" CRCW write deterministically: among all claims on a vertex
the one with the smallest ``(priority, source)`` key wins, which keeps
runs reproducible for a fixed seed.  Every ordering in the race is
linear: sources wake in a radix counting-sort order of their integer
start rounds (:func:`~repro.graph.dedup.stable_argsort`), and claims
and duplicate sources resolve with
:func:`~repro.graph.dedup.first_of_runs`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.graph.dedup import first_of_runs, presence_unique, stable_argsort
from repro.graph.validation import check_vertex_ids
from repro.kernels.numpy_kernel import expand_frontier
from repro.pram.tracker import PramTracker, null_tracker

INF = np.iinfo(np.int64).max


def _frontier_arcs(g: CSRGraph, frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All CSR slots out of ``frontier``: returns (arc_index, arc_source).

    The slots come from the kernels' one expansion helper
    (:func:`~repro.kernels.numpy_kernel.expand_frontier`, shared with
    the bucket and h-hop kernels); the race needs each arc's tail, so
    the frontier is repeated over its out-degrees here.
    """
    arc_idx, counts = expand_frontier(g.indptr, frontier)
    return arc_idx, np.repeat(frontier, counts)


def bfs(
    g: CSRGraph, source: int, tracker: Optional[PramTracker] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Single-source BFS; returns ``(dist, parent)``."""
    _, dist, parent, _, _ = bfs_with_start_times(
        g, np.zeros(1, dtype=np.int64), np.asarray([source]), tracker=tracker
    )
    return dist, parent


def bfs_with_start_times(
    g: CSRGraph,
    start_time: np.ndarray,
    source_ids: np.ndarray,
    priority: Optional[np.ndarray] = None,
    tracker: Optional[PramTracker] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """BFS race with per-source integer start times.

    This is the engine of unweighted EST clustering: source ``i`` wakes
    up at round ``start_time[i]`` and floods outward one hop per round;
    each vertex is claimed by the first wave to arrive, ties broken by
    the smaller ``priority`` (defaults to source order).  Sources wake
    in order of start round, equal rounds in input order: one radix
    counting sort of the integer rounds, with no comparison sort over
    the float priorities.  A source listed more than once wakes once,
    with its earliest start and, among those, its smallest priority.

    Returns ``(arrival, dist, parent, owner, parent_edge)`` where
    ``arrival`` is the round each vertex was claimed (start-shifted),
    ``dist`` is ``arrival - start_time[owner]`` (hops from the owning
    source), ``parent`` the claiming arc's tail, ``owner`` the source
    id, and ``parent_edge`` the claiming arc's edge id (``-1`` at
    sources and unreached vertices).
    Raises :class:`ParameterError` for a source id outside ``[0, n)``,
    a ``start_time``/``priority`` not holding one entry per source, or
    a start time that is not an integer by value (``3.0`` passes;
    ``1.9``, NaN and infinity do not: a cast would truncate them and
    wake the source a round early).
    """
    tracker = tracker or null_tracker()
    start_time = np.asarray(start_time)
    if start_time.dtype.kind not in "iu":
        vals = start_time.astype(np.float64)
        ok = np.isfinite(vals) & (vals == np.floor(vals)) & (np.abs(vals) < 2.0**63)
        if not ok.all():
            raise ParameterError(
                f"start_time must hold integral values, got {vals[~ok][0]}"
            )
    start_time = start_time.astype(np.int64, copy=False)
    source_ids = check_vertex_ids(source_ids, g.n)
    k = source_ids.shape[0]
    if priority is None:
        priority = np.arange(k, dtype=np.float64)
    priority = np.asarray(priority, dtype=np.float64)
    for name, arr in (("start_time", start_time), ("priority", priority)):
        if arr.shape != (k,):
            raise ParameterError(
                f"{name} has shape {arr.shape}, expected one entry per source ({k},)"
            )

    n = g.n
    arrival = np.full(n, INF, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    owner = np.full(n, -1, dtype=np.int64)
    owner_prio = np.full(n, np.inf, dtype=np.float64)
    # each owner's start round, filled as it wakes; slot n stays 0, so
    # an unreached vertex (owner -1) keeps dist = arrival = INF
    owner_start = np.zeros(n + 1, dtype=np.int64)
    # wake order: by start round, equal starts in input order.  Only
    # claims of equal priority read frontier positions, and those keep
    # input order either way, so priority need not join the sort.
    order = stable_argsort(start_time)
    t = start_time[order]
    sid = source_ids[order]
    pr = priority[order]
    # EST races list every vertex as a source exactly once; when ids are
    # distinct the per-batch duplicate resolution below is skipped
    distinct = int(presence_unique(n, (sid,), sparse_factor=1).shape[0]) == k

    frontier = np.empty(0, np.int64)
    round_no = 0
    src_ptr = 0  # next not-yet-woken source in (t, sid, pr) order
    while True:
        # wake sources scheduled for this round that are still unclaimed:
        # one batched claim per round instead of np.append per source
        # (t is sorted, so the batch boundary is a bisection, not a scan)
        j = int(np.searchsorted(t, round_no, side="right")) if src_ptr < k else src_ptr
        if j > src_ptr:
            fresh = src_ptr + np.flatnonzero(arrival[sid[src_ptr:j]] == INF)
            src_ptr = j
            vs, ts, prs = sid[fresh], t[fresh], pr[fresh]
            if vs.shape[0]:
                if not distinct:
                    # a vertex listed twice in one batch wakes once, with
                    # its earliest start, then its smallest priority
                    # (round 0 also wakes every negative start)
                    win = first_of_runs((vs,), prefer=(ts, prs))
                    vs, ts, prs = vs[win], ts[win], prs[win]
                arrival[vs] = round_no
                owner[vs] = vs
                owner_prio[vs] = prs
                owner_start[vs] = ts
                frontier = np.concatenate([frontier, vs]) if frontier.size else vs

        if frontier.size == 0:
            if src_ptr >= k:
                break
            round_no = int(t[src_ptr])  # fast-forward to next wake-up
            continue

        arc_idx, arc_src = _frontier_arcs(g, frontier)
        tracker.parallel_round(work=max(int(arc_idx.shape[0]), int(frontier.shape[0])))
        nbr = g.indices[arc_idx]
        unclaimed = np.flatnonzero(arrival[nbr] == INF)
        nbr = nbr[unclaimed]
        arc_src = arc_src[unclaimed]
        new_frontier = np.empty(0, np.int64)
        if nbr.size:
            # resolve concurrent claims: min priority per neighbor wins
            claim_prio = owner_prio[arc_src]
            win = first_of_runs((nbr,), prefer=(claim_prio,))
            win_v = nbr[win]
            win_p = arc_src[win]
            arrival[win_v] = round_no + 1
            parent[win_v] = win_p
            parent_edge[win_v] = g.edge_ids[arc_idx[unclaimed[win]]]
            owner[win_v] = owner[win_p]
            owner_prio[win_v] = owner_prio[win_p]
            new_frontier = win_v
        frontier = new_frontier
        round_no += 1

    dist = arrival - owner_start[owner]
    return arrival, dist, parent, owner, parent_edge
