"""The per-arc relaxation round: the oracle for ``bucket_sssp_batch``.

:func:`repro.kernels.numpy_kernel.bucket_sssp_batch` expands a
frontier with one three-pass slot formula, gathers candidate distances
once per frontier vertex, compresses the improving arcs with a single
index filter, and min-writes them with one ``np.minimum.at``.  This is
the body it replaced, without its labels: the five-pass expansion, a
candidate gather per arc, three boolean compressions per round, the
uniform-weight shortcut only on the unsplit (Dial) path, and winners
picked by a scatter-min mask (:func:`_min_mask`) before they are
written.  Both must return the same ``(dist,
bucket_work, bucket_rounds)`` value for value and dtype for dtype on
every input (``tests/test_kernel_round.py``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.kernels.numpy_kernel import INT_INF, _once_mask


def _min_mask(ids: np.ndarray, key: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Mask of the entries whose ``key`` is minimal among the entries
    sharing their id: one scatter-min into the int64 scratch ``buf``
    (indexed by id, viewed as ``key``'s numeric dtype) and a
    read-back, no sort.  Only the ``ids`` positions of ``buf`` are
    touched, each seeded with one of its own keys first, so the buffer
    never needs clearing."""
    best = buf.view(key.dtype)
    best[ids] = key
    np.minimum.at(best, ids, key)
    return key == best[ids]


def bucket_sssp_batch_reference(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    run_src: np.ndarray,
    run_ptr: np.ndarray,
    offsets: np.ndarray,
    delta: Optional[float],
    light_heavy: Optional[Tuple[np.ndarray, ...]] = None,
) -> Tuple[np.ndarray, List[int], List[int]]:
    """``bucket_sssp_batch`` as it ran with one boolean mask per array."""
    int_mode = (
        np.issubdtype(np.asarray(weights).dtype, np.integer)
        and np.issubdtype(np.asarray(offsets).dtype, np.integer)
    )
    if int_mode:
        dtype, inf = np.int64, INT_INF
    else:
        dtype, inf = np.float64, np.inf
    weights = np.asarray(weights).astype(dtype, copy=False)
    offsets = np.asarray(offsets).astype(dtype, copy=False)
    run_src = np.asarray(run_src, dtype=np.int64)
    run_ptr = np.asarray(run_ptr, dtype=np.int64)
    k = run_ptr.shape[0] - 1
    single = k == 1  # composite id == vertex id: skip tag arithmetic
    nn = k * n

    dist = np.full(nn, inf, dtype=dtype)
    claim_buf = np.empty(nn, dtype=np.int64)  # claim scratch, one word per state
    settled = np.zeros(nn, dtype=bool)
    bucket_work: List[int] = []
    bucket_rounds: List[int] = []
    # uniform-weight fast path (the unweighted/Dial hot case): candidate
    # distances become one scalar add instead of a per-arc gather
    w_const = None
    if weights.shape[0] and (weights == weights[0]).all():
        w_const = weights[0]

    def _relax_round(
        frontier: np.ndarray,
        xip: np.ndarray,
        xidx: np.ndarray,
        xw: np.ndarray,
        wc: Optional[float] = None,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], int]:
        """One claim-resolved relaxation of ``frontier`` over the
        sub-adjacency ``(xip, xidx, xw)``: gathers the improving
        candidates against the pre-round distances, then writes each
        claimed state's minimum.  Returns ``(win_v, win_d, arcs)`` with
        ``win_v=None`` when nothing improved."""
        vv = frontier if single else frontier % n
        starts = xip[vv]
        counts = xip[vv + 1] - starts
        total = int(counts.sum())
        if total == 0:
            # e.g. every light round when all arcs are heavy
            return None, None, 0
        arc_off = np.repeat(np.cumsum(counts) - counts, counts)
        arc_idx = (
            np.arange(total, dtype=np.int64) - arc_off + np.repeat(starts, counts)
        )
        arc_src = np.repeat(frontier, counts)
        if single:
            nbr = xidx[arc_idx]
        else:
            nbr = np.repeat(frontier - vv, counts) + xidx[arc_idx]
        if wc is not None:
            cand = dist[arc_src] + wc
        else:
            cand = dist[arc_src] + xw[arc_idx]
        improving = cand < dist[nbr]
        nbr, cand = nbr[improving], cand[improving]
        if nbr.shape[0] == 0:
            return None, None, total
        keep = _min_mask(nbr, cand, claim_buf)
        nbr, cand = nbr[keep], cand[keep]
        once = _once_mask(nbr, claim_buf)
        win_v, win_d = nbr[once], cand[once]
        dist[win_v] = win_d
        return win_v, win_d, total

    pending: List[np.ndarray] = []
    if run_src.shape[0]:
        if single:
            comp = run_src
        else:
            run_of = np.repeat(np.arange(k, dtype=np.int64), np.diff(run_ptr))
            comp = run_of * n + run_src
        # the best offset per distinct composite seeds that run
        keep = _min_mask(comp, offsets, claim_buf)
        cs, off_s = comp[keep], offsets[keep]
        once = _once_mask(cs, claim_buf)
        cs = cs[once]
        dist[cs] = off_s[once]
        pending.append(cs)

    while pending:
        # each pending array is duplicate-free (claim winners, seed
        # dedup); only several of them can repeat a state
        pend = pending[0] if len(pending) == 1 else np.concatenate(pending)
        pend = pend[~settled[pend]]
        if len(pending) > 1:
            pend = pend[_once_mask(pend, claim_buf)]
        pending = []
        if pend.shape[0] == 0:
            continue
        d_pend = dist[pend]
        d_min = d_pend.min()
        hi = (d_min // delta) * delta + delta
        if hi <= d_min:
            # float roundoff at extreme d_min/delta ratios can make the
            # nominal bucket top collapse onto d_min; degrade to a
            # single-value bucket so the frontier is never empty
            hi = np.nextafter(d_min, np.inf)
        in_bucket = d_pend < hi
        frontier = pend[in_bucket]
        if not in_bucket.all():
            pending.append(pend[~in_bucket])

        if light_heavy is not None:
            # real-weight delta-stepping: light fixpoint + one heavy pass
            lip, lidx, lw, hip, hidx, hw = light_heavy
            work = 0
            rounds = 0
            member_chunks: List[np.ndarray] = []
            while frontier.shape[0]:
                rounds += 1
                settled[frontier] = True
                member_chunks.append(frontier)
                win_v, win_d, arcs = _relax_round(frontier, lip, lidx, lw)
                work += max(arcs, int(frontier.shape[0]))
                if win_v is None:
                    break
                stay = win_d < hi  # improved into this bucket: re-relax now
                frontier = win_v[stay]
                if not stay.all():
                    pending.append(win_v[~stay])
            members = member_chunks[0]
            if len(member_chunks) > 1:
                # re-improved vertices join several light rounds
                members = np.concatenate(member_chunks)
                members = members[_once_mask(members, claim_buf)]
            if members.shape[0]:
                # heavy candidates land at >= hi, so one pass settles
                # the bucket's heavy arcs for good
                rounds += 1
                win_v, win_d, arcs = _relax_round(members, hip, hidx, hw)
                work += max(arcs, int(members.shape[0]))
                if win_v is not None:
                    pending.append(win_v)
            bucket_work.append(work)
            bucket_rounds.append(rounds)
            continue

        work = 0
        rounds = 0
        while frontier.shape[0]:
            rounds += 1
            settled[frontier] = True
            win_v, win_d, arcs = _relax_round(
                frontier, indptr, indices, weights, w_const
            )
            work += max(arcs, int(frontier.shape[0]))
            if win_v is None:
                break
            stay = win_d < hi  # improved into this bucket: re-relax now
            frontier = win_v[stay]
            if not stay.all():
                pending.append(win_v[~stay])
        bucket_work.append(work)
        bucket_rounds.append(rounds)

    return dist, bucket_work, bucket_rounds
