"""The lexsort BFS race: the reference for ``bfs_with_start_times``.

:func:`repro.paths.bfs.bfs_with_start_times` wakes its sources in a
radix counting-sort order of their integer start rounds, resolves a
source listed twice in one wake batch with ``first_of_runs`` and reads
each owner's start round off a table it fills while waking.  This is
the body it replaced: one ``np.lexsort`` over ``(start, priority)``,
``np.unique`` for duplicate sources, and a ``np.minimum.at`` table of
start times read back through a ``np.where`` chain.  Both must return
the same five arrays, value for value and dtype for dtype, and charge
the same ledger (``tests/test_paths_bfs.py``); the single-graph EST
reference (:mod:`.est`) races with this one.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.graph.dedup import first_of_runs, presence_unique
from repro.graph.validation import check_vertex_ids
from repro.kernels.numpy_kernel import expand_frontier
from repro.pram.tracker import PramTracker, null_tracker

INF = np.iinfo(np.int64).max


def bfs_with_start_times_reference(
    g: CSRGraph,
    start_time: np.ndarray,
    source_ids: np.ndarray,
    priority: Optional[np.ndarray] = None,
    tracker: Optional[PramTracker] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(arrival, dist, parent, owner, parent_edge)`` of the start-time
    race, with the same arguments and checks as
    :func:`repro.paths.bfs.bfs_with_start_times`."""
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
    # a vertex may be listed as a source more than once; the smallest
    # (start, priority) wins
    order = np.lexsort((priority, start_time))
    t = start_time[order]
    sid = source_ids[order]
    pr = priority[order]
    distinct = int(presence_unique(n, (sid,), sparse_factor=1).shape[0]) == k

    frontier = np.empty(0, np.int64)
    round_no = 0
    src_ptr = 0  # next not-yet-woken source in (t, sid, pr) order
    while True:
        j = int(np.searchsorted(t, round_no, side="right")) if src_ptr < k else src_ptr
        if j > src_ptr:
            vs = sid[src_ptr:j]
            prs = pr[src_ptr:j]
            src_ptr = j
            fresh = arrival[vs] == INF
            vs, prs = vs[fresh], prs[fresh]
            if vs.shape[0]:
                if distinct:
                    uniq, first_idx = vs, slice(None)
                else:
                    # the slice is (start, priority)-sorted, so its first wins
                    uniq, first_idx = np.unique(vs, return_index=True)
                arrival[uniq] = round_no
                owner[uniq] = uniq
                owner_prio[uniq] = prs[first_idx]
                parent[uniq] = -1
                frontier = np.concatenate([frontier, uniq]) if frontier.size else uniq

        if frontier.size == 0:
            if src_ptr >= k:
                break
            round_no = int(t[src_ptr])  # fast-forward to next wake-up
            continue

        arc_idx, counts = expand_frontier(g.indptr, frontier)
        arc_src = np.repeat(frontier, counts)
        tracker.parallel_round(work=max(int(arc_idx.shape[0]), int(frontier.shape[0])))
        nbr = g.indices[arc_idx]
        unclaimed = np.flatnonzero(arrival[nbr] == INF)
        nbr = nbr[unclaimed]
        arc_src = arc_src[unclaimed]
        new_frontier = np.empty(0, np.int64)
        if nbr.size:
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

    dist = np.where(
        arrival == INF,
        INF,
        arrival - _start_of(owner, source_ids, start_time, n),
    )
    return arrival, dist, parent, owner, parent_edge


def _start_of(owner: np.ndarray, source_ids: np.ndarray, start_time: np.ndarray, n: int) -> np.ndarray:
    """Each vertex's owning source's earliest start time (0 if unowned)."""
    table = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(table, source_ids, start_time)
    safe_owner = np.where(owner >= 0, owner, 0)
    out = table[safe_owner]
    return np.where(owner >= 0, out, 0)
