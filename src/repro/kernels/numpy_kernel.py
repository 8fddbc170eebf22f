"""Vectorized bucket-relaxation SSSP kernels.

The algorithm is delta-stepping, in two flavors selected by the
``light_heavy`` argument:

Without a split (``light_heavy=None``) tentative distances are grouped
into width-``delta`` buckets; processing a bucket repeatedly relaxes
*all* arcs out of its frontier until no vertex inside the bucket
improves, then moves to the next occupied bucket.  With positive
weights this is exact: once bucket ``[lo, hi)`` reaches its fixpoint no
later relaxation can produce a distance below ``hi`` (every candidate
is ``dist[u] + w > lo`` with ``dist[u] >= lo`` settled), so its members
are final.  With ``delta <= min weight`` each bucket needs exactly one
relaxation round and the schedule degenerates to Dial's algorithm —
the integer-weight "weighted parallel BFS" of Section 5.  This is the
bit-for-bit-preserved integer fast path.

With a split (``light_heavy`` from :func:`split_light_heavy`) the
kernel is true Meyer–Sanders delta-stepping for arbitrary non-negative
real weights: the inner fixpoint loop relaxes only *light* arcs
(``w <= delta`` — the only arcs that can re-enter the current bucket),
and once the bucket settles, a single *heavy* pass relaxes the heavy
arcs of every vertex the bucket settled.  A heavy candidate is
``dist[u] + w > lo + delta = hi``, so it can never fall back into the
bucket — one heavy round per bucket suffices, and the wasted
re-relaxation of heavy arcs inside the fixpoint loop disappears.  The
ledger charges every light iteration and the heavy pass as separate
relaxation rounds, keeping the PRAM depth accounting honest.

Every relaxation round is one batched gather/scatter over all frontier
arcs, so a round is one CRCW PRAM step and the interpreter executes
O(buckets x inner rounds) numpy calls instead of O(n + m) heap
operations.  Wall time is therefore rounds x per-round dispatch plus
arcs x passes per arc, and a round keeps both small: one expansion
(:func:`expand_frontier`, three arc-length passes) lists the
frontier's CSR slots; candidate distances are gathered once per
frontier vertex and repeated over its arcs, adding the arc weights
only when they are not all equal (a uniform-weight graph adds one
scalar, on the split path too); one index filter keeps the improving
arcs.  A light or heavy half with no arcs at all returns before any
gather, but its round and its frontier-size work are still charged,
so the ledger is the same as if it had run.

Concurrent claims on a state are one CRCW min-write: a round writes
its improving candidates with one ``np.minimum.at`` after all of its
reads, and its winners are the distinct improved states.  Seeds keep
their minimum offset the same way.  Frontier and bucket-member unions
are deduplicated through a per-call scratch word per state
(:func:`_once_mask`), not by ``np.unique``; frontier order therefore
follows claim order, which no distance or ledger depends on.

The kernels return distances only: no parent, owner or rank array is
kept.  The shortest-path forest a caller wants is derived from the
distances afterwards (:func:`repro.paths.trees.shortest_path_forest`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

INT_INF = np.iinfo(np.int64).max


def suggest_delta(n: int, num_arcs: int, max_weight: float) -> float:
    """Default bucket width for real-weight delta-stepping:
    ``max_weight / average degree`` (the Meyer–Sanders heuristic — the
    expected light arcs per vertex stay O(1) per bucket while the
    bucket count stays within a degree factor of the distance range).
    Falls back to 1.0 for empty or degenerate weight distributions.
    The single source of truth behind both
    :meth:`repro.graph.csr.CSRGraph.suggest_delta` and the engine's
    explicit-weights path.
    """
    if num_arcs == 0 or n == 0:
        return 1.0
    delta = max_weight / max(num_arcs / n, 1.0)
    if not np.isfinite(delta) or delta <= 0:
        return 1.0
    return float(delta)


def split_light_heavy(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    delta: float,
) -> Tuple[np.ndarray, ...]:
    """Partition a CSR adjacency into light (``w <= delta``) and heavy
    (``w > delta``) sub-CSRs.

    Returns ``(l_indptr, l_indices, l_weights, h_indptr, h_indices,
    h_weights)``.  CSR slots are grouped by source vertex, so masking
    preserves each vertex's adjacency order and the sub-structures are
    valid CSRs over the same vertex ids.  One O(m) pass; callers cache
    the result per ``(graph, delta)`` (see
    :meth:`repro.graph.csr.CSRGraph.light_heavy_split`).
    """
    n = indptr.shape[0] - 1
    weights = np.asarray(weights)
    light = weights <= delta
    arc_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    out = []
    for mask in (light, ~light):
        counts = np.bincount(arc_src[mask], minlength=n)
        sub_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=sub_indptr[1:])
        out.extend((sub_indptr, indices[mask], weights[mask]))
    return tuple(out)


def _once_mask(ids: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Mask keeping exactly one entry per distinct id: every entry
    stamps its position into the int64 scratch ``buf`` and survives if
    its stamp did.  Which duplicate survives is up to the scatter, so
    this is only used where duplicates are interchangeable."""
    pos = np.arange(ids.shape[0], dtype=np.int64)
    buf[ids] = pos
    return buf[ids] == pos


def expand_frontier(
    indptr: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All CSR slots out of ``frontier``: returns ``(arc_index, counts)``.

    ``arc_index`` lists each frontier vertex's adjacency range in
    frontier order (a vertex listed twice is expanded twice) and
    ``counts[i]`` is the out-degree of ``frontier[i]``, so a caller
    spreads a per-vertex array over its arcs with
    ``np.repeat(x, counts)`` and repeats only what it needs.  The slots
    are ``repeat(start - exclusive_cumsum(counts)) + arange(total)``:
    three arc-length passes, no Python loop over vertices.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    # cumsum promotes compact (int32) CSR offsets to int64
    arc_index = (starts - (counts.cumsum() - counts)).repeat(counts)
    arc_index += np.arange(arc_index.shape[0], dtype=arc_index.dtype)
    return arc_index, counts


def hop_sssp_batch(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    sources: np.ndarray,
    h: int,
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Frontier-based h-hop Bellman–Ford from ``sources`` at distance 0.

    Every synchronous round is one batched gather/scatter over the
    frontier arcs.  Unlike dense synchronous Bellman–Ford (which
    relaxes every arc every round), round ``t`` gathers only from
    vertices improved in round ``t - 1`` — by synchronous semantics an
    unimproved vertex's out-arcs were already fully applied, so
    skipping them changes nothing.  The result equals the dense
    reference ``dense_hop_distances`` (``tests/oracles/bellman_ford.py``)
    on the same arcs: ``dist`` is the minimum weight over paths of at
    most ``h`` arcs and ``hops`` the round each value stabilized.

    Returns ``(dist, hops, round_arcs)``: length-``n`` label arrays and
    the arcs gathered by each executed round (the PRAM work ledger —
    ``len(round_arcs)`` rounds ran).  The search stops early once a
    round improves nothing.  (The ``_batch`` name predates the
    single-search form; the benchmark suite's tracer resolves it.)
    """
    n = indptr.shape[0] - 1
    sources = np.asarray(sources, dtype=np.int64)
    weights = np.asarray(weights).astype(np.float64, copy=False)
    # claim scratch, one word per vertex (see _once_mask)
    claim_buf = np.empty(n, dtype=np.int64)

    dist = np.full(n, np.inf, dtype=np.float64)
    hops = np.zeros(n, dtype=np.int64)
    frontier = sources[_once_mask(sources, claim_buf)]
    dist[frontier] = 0.0
    r = 0

    round_arcs: List[int] = []
    while r < h and frontier.shape[0]:
        r += 1
        # improving candidates out of the frontier, against the
        # pre-round labels
        arc_idx, counts = expand_frontier(indptr, frontier)
        round_arcs.append(int(arc_idx.shape[0]))
        nbr = indices[arc_idx]
        cand = dist[frontier].repeat(counts)
        cand += weights[arc_idx]
        sel = (cand < dist[nbr]).nonzero()[0]
        if sel.shape[0] == 0:
            break
        # every improved vertex wins, at its minimum candidate; all
        # writes follow every read, so the round stays synchronous
        nbr, cand = nbr[sel], cand[sel]
        win_v = nbr[_once_mask(nbr, claim_buf)]
        np.minimum.at(dist, nbr, cand)
        hops[win_v] = r
        frontier = win_v

    return dist, hops, round_arcs


def bucket_sssp(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    sources: np.ndarray,
    offsets: np.ndarray,
    delta: Optional[float],
    light_heavy: Optional[Tuple[np.ndarray, ...]] = None,
) -> Tuple[np.ndarray, List[int], List[int]]:
    """Multi-source bucket SSSP over raw CSR arrays.

    Parameters
    ----------
    weights, offsets, delta:
        Either all integral (``int64`` distances, Dial semantics) or
        treated as ``float64``.  ``delta`` is the bucket width.
    light_heavy:
        Optional :func:`split_light_heavy` partition at this ``delta``;
        when given, buckets run the light-edge fixpoint loop plus one
        heavy settle pass (real-weight delta-stepping) instead of
        relaxing every arc each round.

    Returns ``(dist, bucket_work, bucket_rounds)``:
    ``bucket_work[i]`` is the PRAM work (frontier arcs, floored at
    frontier size) spent on the i-th processed bucket and
    ``bucket_rounds[i]`` its relaxation-round count.

    Implemented as the ``k = 1`` case of :func:`bucket_sssp_batch` (one
    shared relaxation loop; the batch kernel skips all composite-id
    arithmetic for a single run, so this costs nothing extra).
    Distances and ledgers equal those of the per-arc round the kernel
    used before (``tests/oracles/bucket.py``), value for value and dtype
    for dtype.
    """
    sources = np.asarray(sources, dtype=np.int64)
    run_ptr = np.asarray([0, sources.shape[0]], dtype=np.int64)
    return bucket_sssp_batch(
        indptr,
        indices,
        weights,
        n,
        sources,
        run_ptr,
        offsets,
        delta,
        light_heavy,
    )


def bucket_sssp_batch(
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
    """Source-tagged batch of ``k`` independent bucket-SSSP runs.

    Run ``r`` is the multi-source search seeded by
    ``run_src[run_ptr[r]:run_ptr[r+1]]`` with start offsets from the
    matching slice of ``offsets``.
    The state space is the composite id ``r * n + v`` — conceptually
    ``k`` disjoint copies of the graph — but the adjacency is read from
    the *single* shared CSR, so every relaxation round is one batched
    gather/scatter over the frontier arcs of **all** runs at once.
    That sharing is the whole point: ``k`` searches progress per
    interpreter round instead of one.  Composites of different runs
    never claim the same state, so runs cannot interact, and each run's
    distances equal a standalone :func:`bucket_sssp` call's.

    Returns the flat length-``k*n`` distance array (the caller reshapes
    to ``(k, n)``) and the ledger lists ``bucket_work, bucket_rounds``:
    ``bucket_work[i]`` is the PRAM work (frontier arcs, floored at
    frontier size) of the i-th processed bucket and ``bucket_rounds[i]``
    its relaxation-round count.

    ``light_heavy`` (a :func:`split_light_heavy` partition of the
    *shared* CSR at this ``delta``) switches buckets to the light-loop
    + heavy-pass schedule; composite ids index the split through
    ``comp % n`` exactly like the full adjacency.
    """
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
    claim_buf = np.empty(nn, dtype=np.int64)  # dedup scratch, see _once_mask
    settled = np.zeros(nn, dtype=bool)
    bucket_work: List[int] = []
    bucket_rounds: List[int] = []
    # uniform-weight fast path (unweighted graphs, on the Dial and the
    # split schedule alike; both halves of a split hold the same weight):
    # candidate distances become one scalar add instead of a per-arc gather
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
        """One relaxation of ``frontier`` over the sub-adjacency
        ``(xip, xidx, xw)``: gathers the improving candidates against
        the pre-round distances (``wc``, when given, is the weight of
        every arc), then min-writes them.  Returns ``(win_v, win_d,
        arcs)`` with ``win_v=None`` when nothing improved."""
        if xidx.shape[0] == 0:
            # an empty half (every light round when all arcs are heavy):
            # no gather at all; the caller still charges the round
            return None, None, 0
        vv = frontier if single else frontier % n
        arc_idx, counts = expand_frontier(xip, vv)
        total = int(arc_idx.shape[0])
        if single:
            nbr = xidx[arc_idx]
        else:
            nbr = (frontier - vv).repeat(counts)
            nbr += xidx[arc_idx]
        # one gather per frontier vertex: entry for entry the same IEEE
        # sum as dist[arc tail] + w, so distances stay bit-identical
        if wc is not None:
            cand = (dist[frontier] + wc).repeat(counts)
        else:
            cand = dist[frontier].repeat(counts)
            cand += xw[arc_idx]
        sel = (cand < dist[nbr]).nonzero()[0]
        if sel.shape[0] == 0:
            return None, None, total
        # every improved state wins, at its minimum candidate; the write
        # follows every read of the round
        nbr, cand = nbr[sel], cand[sel]
        win_v = nbr[_once_mask(nbr, claim_buf)]
        np.minimum.at(dist, nbr, cand)
        return win_v, dist[win_v], total

    pending: List[np.ndarray] = []
    if run_src.shape[0]:
        if single:
            comp = run_src
        else:
            run_of = np.repeat(np.arange(k, dtype=np.int64), np.diff(run_ptr))
            comp = run_of * n + run_src
        # the minimum offset per distinct composite seeds that run
        np.minimum.at(dist, comp, offsets)
        pending.append(comp[_once_mask(comp, claim_buf)])

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
                win_v, win_d, arcs = _relax_round(frontier, lip, lidx, lw, w_const)
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
                win_v, win_d, arcs = _relax_round(members, hip, hidx, hw, w_const)
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
