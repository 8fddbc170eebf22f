"""Level-synchronous parallel BFS with vectorized frontier expansion.

One BFS level = one PRAM round: gather all arcs out of the frontier,
claim unvisited endpoints, resolve concurrent claims.  Work per round is
the number of frontier arcs — total O(m) over the whole search — and
depth is (number of levels) x (depth per round), exactly the accounting
the paper uses (Lemma 2.1, [UY91]).

Concurrent-claim resolution implements the paper's "arbitrary tie
breaking" CRCW write deterministically: among all claims on a vertex
the one with the smallest ``(priority, source)`` key wins, which keeps
runs reproducible for a fixed seed.
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
    _, dist, parent, _ = bfs_with_start_times(
        g, np.zeros(1, dtype=np.int64), np.asarray([source]), tracker=tracker
    )
    return dist, parent


def bfs_with_start_times(
    g: CSRGraph,
    start_time: np.ndarray,
    source_ids: np.ndarray,
    priority: Optional[np.ndarray] = None,
    tracker: Optional[PramTracker] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """BFS race with per-source integer start times.

    This is the engine of unweighted EST clustering: source ``i`` wakes
    up at round ``start_time[i]`` and floods outward one hop per round;
    each vertex is claimed by the first wave to arrive, ties broken by
    the smaller ``priority`` (defaults to source order).

    Returns ``(arrival, dist, parent, owner)`` where ``arrival`` is the
    round each vertex was claimed (start-shifted), ``dist`` is
    ``arrival - start_time[owner]`` (hops from the owning source),
    ``parent`` the claiming arc's tail, and ``owner`` the source id.
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
    owner = np.full(n, -1, dtype=np.int64)
    owner_prio = np.full(n, np.inf, dtype=np.float64)
    # per-vertex start info (a vertex may be listed as a source more than
    # once; the smallest (start, priority) wins)
    order = np.lexsort((priority, start_time))
    t = start_time[order]
    sid = source_ids[order]
    pr = priority[order]
    # EST races list every vertex as a source exactly once; when ids are
    # distinct the per-batch duplicate resolution below is a no-op and
    # its np.unique (one per round) is pure overhead
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
            vs = sid[src_ptr:j]
            prs = pr[src_ptr:j]
            src_ptr = j
            fresh = arrival[vs] == INF
            vs, prs = vs[fresh], prs[fresh]
            if vs.shape[0]:
                if distinct:
                    uniq, first_idx = vs, slice(None)
                else:
                    # duplicates of a vertex in one wake batch: the slice
                    # is (start, priority)-sorted, so its first wins
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
    return arrival, dist, parent, owner


def _start_of(owner: np.ndarray, source_ids: np.ndarray, start_time: np.ndarray, n: int) -> np.ndarray:
    """Map each vertex's owning source id to that source's start time.

    If a source id appears several times, the earliest start is the one
    that could have claimed vertices, so the table keeps the minimum.
    """
    table = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(table, source_ids, start_time)
    safe_owner = np.where(owner >= 0, owner, 0)
    out = table[safe_owner]
    return np.where(owner >= 0, out, 0)
