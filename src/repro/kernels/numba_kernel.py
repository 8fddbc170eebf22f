"""JIT-compiled SSSP kernels (optional numba backend).

Same contract as :mod:`repro.kernels.numpy_kernel`, executed as
compiled scalar passes.  Two cores:

``_heap_sssp_core``
    An array-based binary-heap Dijkstra whose heap keys are
    ``(distance, owner rank, insertion order)``, which reproduces the
    engine's deterministic tie-break (earlier sources win) without any
    interpreter-per-edge overhead.  Serves the integer Dial path and
    any call without a light/heavy split.
``_delta_sssp_core``
    Real-weight delta-stepping over a pre-split light/heavy adjacency
    (:func:`repro.kernels.numpy_kernel.split_light_heavy`): each bucket
    drains a light-edge worklist to its fixpoint, then relaxes every
    settled member's heavy arcs once (heavy candidates always land in
    later buckets).  Relaxations accept *strict* improvements only —
    the same cross-round rule as the numpy kernel — and work is
    generated in deterministic order seeded by source rank, so the
    equal-offset races the engine pins (earlier source entry wins)
    resolve identically; as everywhere else, forest parents/owners on
    exact measure-zero ties may be schedule-dependent while distances
    are always exact.

Distances are computed in ``float64``; integer-weight callers get
exact results for values below 2**53 (the engine converts back).

Multicore batches: the batch wrappers route ``workers > 1`` requests
through ``prange``-parallel cores (``_heap_sssp_batch_core`` /
``_delta_sssp_batch_core``, compiled with ``parallel=True``) that
execute the *runs* of a batch concurrently — the embarrassingly
parallel axis.  Every run's scratch (heap / worklist / label arrays)
is allocated inside its own ``prange`` iteration, so state is
thread-private by construction and each run's output is the exact
array the sequential wrapper would have produced — results and the
reconstructed bucket ledger are bit-identical to ``workers=1``.

Import is guarded: when numba is missing, ``HAVE_NUMBA`` is False and
:func:`repro.kernels.resolve_backend` silently maps ``numba`` to
``numpy`` — nothing in the repo hard-requires the JIT toolchain.  The
``njit`` stub below keeps all cores importable *and executable* as
pure Python (``prange`` degrades to ``range``), so the algorithms stay
testable even without the JIT (the registry never routes real traffic
at them in that case).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Tuple

import numpy as np

from repro.parallel.pool import DEFAULT_WORKERS, WorkersArg, effective_workers

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False
    prange = range  # the stub cores stay executable, just sequential

    def njit(*args, **kwargs):  # type: ignore[misc]
        """Stub decorator so the module still imports without numba."""

        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


@contextmanager
def _numba_thread_cap(nw: int):
    """Clamp numba's thread-pool width to ``nw`` for one compiled call.

    No-op without numba; with it, the cap never exceeds the layout
    numba was launched with (``NUMBA_NUM_THREADS``) and the previous
    setting is always restored.
    """
    if not HAVE_NUMBA:
        yield
        return
    try:
        import numba as _numba
    except ImportError:  # HAVE_NUMBA monkeypatched to exercise the stubs
        yield
        return

    prev = _numba.get_num_threads()
    _numba.set_num_threads(max(1, min(nw, _numba.config.NUMBA_NUM_THREADS)))
    try:
        yield
    finally:
        _numba.set_num_threads(prev)


@njit(cache=True)
def _heap_sssp_core(
    indptr, indices, weights, n, sources, offsets, ranks
):  # pragma: no cover - compiled path; covered when numba is present
    inf = np.inf
    dist = np.full(n, inf, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    owner = np.full(n, -1, dtype=np.int64)
    rank = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    settled = np.zeros(n, dtype=np.bool_)

    cap = max(4 * (sources.shape[0] + 1), 1024)
    hk = np.empty(cap, dtype=np.float64)  # key: tentative distance
    hr = np.empty(cap, dtype=np.int64)  # tie 1: owner rank
    ht = np.empty(cap, dtype=np.int64)  # tie 2: insertion order
    hv = np.empty(cap, dtype=np.int64)  # payload: vertex
    size = 0
    pushes = 0
    arcs = 0

    for i in range(sources.shape[0]):
        v = sources[i]
        d = offsets[i]
        r = ranks[i]
        if d < dist[v] or (d == dist[v] and r < rank[v]):
            dist[v] = d
            owner[v] = v
            rank[v] = r
            parent[v] = -1
            if size == cap:
                cap *= 2
                hk = np.concatenate((hk, np.empty(size, dtype=np.float64)))
                hr = np.concatenate((hr, np.empty(size, dtype=np.int64)))
                ht = np.concatenate((ht, np.empty(size, dtype=np.int64)))
                hv = np.concatenate((hv, np.empty(size, dtype=np.int64)))
            # sift-up insert
            j = size
            size += 1
            hk[j] = d
            hr[j] = r
            ht[j] = pushes
            hv[j] = v
            pushes += 1
            while j > 0:
                p = (j - 1) // 2
                if hk[p] > hk[j] or (
                    hk[p] == hk[j]
                    and (hr[p] > hr[j] or (hr[p] == hr[j] and ht[p] > ht[j]))
                ):
                    hk[p], hk[j] = hk[j], hk[p]
                    hr[p], hr[j] = hr[j], hr[p]
                    ht[p], ht[j] = ht[j], ht[p]
                    hv[p], hv[j] = hv[j], hv[p]
                    j = p
                else:
                    break

    while size > 0:
        d = hk[0]
        v = hv[0]
        # pop root
        size -= 1
        hk[0], hr[0], ht[0], hv[0] = hk[size], hr[size], ht[size], hv[size]
        j = 0
        while True:
            lft = 2 * j + 1
            rgt = lft + 1
            best = j
            if lft < size and (
                hk[lft] < hk[best]
                or (
                    hk[lft] == hk[best]
                    and (
                        hr[lft] < hr[best]
                        or (hr[lft] == hr[best] and ht[lft] < ht[best])
                    )
                )
            ):
                best = lft
            if rgt < size and (
                hk[rgt] < hk[best]
                or (
                    hk[rgt] == hk[best]
                    and (
                        hr[rgt] < hr[best]
                        or (hr[rgt] == hr[best] and ht[rgt] < ht[best])
                    )
                )
            ):
                best = rgt
            if best == j:
                break
            hk[best], hk[j] = hk[j], hk[best]
            hr[best], hr[j] = hr[j], hr[best]
            ht[best], ht[j] = ht[j], ht[best]
            hv[best], hv[j] = hv[j], hv[best]
            j = best
        if settled[v] or d > dist[v]:
            continue  # lazy deletion of stale entries
        settled[v] = True
        dv = dist[v]
        rv = rank[v]
        ov = owner[v]
        for a in range(indptr[v], indptr[v + 1]):
            u = indices[a]
            arcs += 1
            nd = dv + weights[a]
            if nd < dist[u] and not settled[u]:
                dist[u] = nd
                parent[u] = v
                owner[u] = ov
                rank[u] = rv
                if size == cap:
                    old = cap
                    cap *= 2
                    nk = np.empty(cap, dtype=np.float64)
                    nr = np.empty(cap, dtype=np.int64)
                    nt = np.empty(cap, dtype=np.int64)
                    nv = np.empty(cap, dtype=np.int64)
                    nk[:old] = hk
                    nr[:old] = hr
                    nt[:old] = ht
                    nv[:old] = hv
                    hk, hr, ht, hv = nk, nr, nt, nv
                j = size
                size += 1
                hk[j] = nd
                hr[j] = rv
                ht[j] = pushes
                hv[j] = u
                pushes += 1
                while j > 0:
                    p = (j - 1) // 2
                    if hk[p] > hk[j] or (
                        hk[p] == hk[j]
                        and (hr[p] > hr[j] or (hr[p] == hr[j] and ht[p] > ht[j]))
                    ):
                        hk[p], hk[j] = hk[j], hk[p]
                        hr[p], hr[j] = hr[j], hr[p]
                        ht[p], ht[j] = ht[j], ht[p]
                        hv[p], hv[j] = hv[j], hv[p]
                        j = p
                    else:
                        break

    return dist, parent, owner, arcs


@njit(cache=True)
def _delta_sssp_core(
    l_indptr,
    l_indices,
    l_w,
    h_indptr,
    h_indices,
    h_w,
    n,
    sources,
    offsets,
    ranks,
    delta,
):  # pragma: no cover - compiled path; covered via the pure-Python stub
    inf = np.inf
    norank = np.iinfo(np.int64).max
    dist = np.full(n, inf, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    owner = np.full(n, -1, dtype=np.int64)
    rank = np.full(n, norank, dtype=np.int64)
    settled = np.zeros(n, dtype=np.bool_)
    in_pend = np.zeros(n, dtype=np.bool_)
    in_wl = np.zeros(n, dtype=np.bool_)

    # pending holds each unsettled labeled vertex at most once (in_pend
    # guard), so capacity n suffices; the bucket worklist is an
    # append-only log (lazy re-push on improvement) and grows on demand
    pend = np.empty(n, dtype=np.int64)
    pend_n = 0
    members = np.empty(n, dtype=np.int64)
    wl_cap = 1024
    wl = np.empty(wl_cap, dtype=np.int64)

    for i in range(sources.shape[0]):
        v = sources[i]
        d = offsets[i]
        r = ranks[i]
        if d < dist[v] or (d == dist[v] and r < rank[v]):
            dist[v] = d
            owner[v] = v
            rank[v] = r
            parent[v] = -1
            if not in_pend[v]:
                in_pend[v] = True
                pend[pend_n] = v
                pend_n += 1

    arcs = 0
    buckets = 0
    while pend_n > 0:
        # compact the pending pool and find the next bucket floor
        m2 = 0
        d_min = inf
        for t in range(pend_n):
            v = pend[t]
            if settled[v]:
                in_pend[v] = False
                continue
            pend[m2] = v
            m2 += 1
            if dist[v] < d_min:
                d_min = dist[v]
        pend_n = m2
        if pend_n == 0:
            break
        hi = (d_min // delta) * delta + delta
        if hi <= d_min:
            # roundoff degenerate bucket, same guard as the numpy kernel
            hi = np.nextafter(d_min, inf)
        buckets += 1

        # move this bucket's vertices into the worklist
        wl_n = 0
        m2 = 0
        for t in range(pend_n):
            v = pend[t]
            if dist[v] < hi:
                in_pend[v] = False
                if not in_wl[v]:
                    in_wl[v] = True
                    if wl_n == wl_cap:
                        wl_cap *= 2
                        nwl = np.empty(wl_cap, dtype=np.int64)
                        nwl[:wl_n] = wl[:wl_n]
                        wl = nwl
                    wl[wl_n] = v
                    wl_n += 1
            else:
                pend[m2] = v
                m2 += 1
        pend_n = m2

        # light-edge fixpoint: drain the worklist, re-pushing any
        # vertex whose distance improves while inside the bucket
        mem_n = 0
        head = 0
        while head < wl_n:
            v = wl[head]
            head += 1
            in_wl[v] = False
            if not settled[v]:
                settled[v] = True
                members[mem_n] = v
                mem_n += 1
            dv = dist[v]
            rv = rank[v]
            ov = owner[v]
            for a in range(l_indptr[v], l_indptr[v + 1]):
                u = l_indices[a]
                arcs += 1
                nd = dv + l_w[a]
                # strict improvement only — the same cross-round rule as
                # the numpy kernel, so equal-key claims resolve by
                # generation order (seeded by rank)
                if nd < dist[u]:
                    dist[u] = nd
                    parent[u] = v
                    owner[u] = ov
                    rank[u] = rv
                    if nd < hi:
                        if not in_wl[u]:
                            in_wl[u] = True
                            if wl_n == wl_cap:
                                wl_cap *= 2
                                nwl = np.empty(wl_cap, dtype=np.int64)
                                nwl[:wl_n] = wl[:wl_n]
                                wl = nwl
                            wl[wl_n] = u
                            wl_n += 1
                    elif not in_pend[u]:
                        in_pend[u] = True
                        pend[pend_n] = u
                        pend_n += 1

        # heavy settle pass: members' labels are final, one round each
        for t in range(mem_n):
            v = members[t]
            dv = dist[v]
            rv = rank[v]
            ov = owner[v]
            for a in range(h_indptr[v], h_indptr[v + 1]):
                u = h_indices[a]
                arcs += 1
                nd = dv + h_w[a]
                if nd < dist[u]:
                    dist[u] = nd
                    parent[u] = v
                    owner[u] = ov
                    rank[u] = rv
                    if not in_pend[u]:
                        in_pend[u] = True
                        pend[pend_n] = u
                        pend_n += 1

    return dist, parent, owner, arcs, buckets


@njit(cache=True, parallel=True)
def _heap_sssp_batch_core(
    indptr, indices, weights, n, run_src, run_ptr, offsets, ranks,
    dist, parent, owner, arcs_out,
):  # pragma: no cover - compiled path; covered via the pure-Python stub
    k = run_ptr.shape[0] - 1
    for r in prange(k):
        lo = run_ptr[r]
        hi = run_ptr[r + 1]
        # the nested core allocates every scratch array (heap, labels)
        # inside this iteration: thread-private state, bit-identical
        # per-run output, disjoint destination slices
        d, p, o, arcs = _heap_sssp_core(
            indptr, indices, weights, n,
            run_src[lo:hi], offsets[lo:hi], ranks[lo:hi],
        )
        dist[r * n : (r + 1) * n] = d
        parent[r * n : (r + 1) * n] = p
        owner[r * n : (r + 1) * n] = o
        arcs_out[r] = arcs


@njit(cache=True, parallel=True)
def _delta_sssp_batch_core(
    l_indptr, l_indices, l_w, h_indptr, h_indices, h_w, n,
    run_src, run_ptr, offsets, ranks, delta,
    dist, parent, owner, arcs_out, buckets_out,
):  # pragma: no cover - compiled path; covered via the pure-Python stub
    k = run_ptr.shape[0] - 1
    for r in prange(k):
        lo = run_ptr[r]
        hi = run_ptr[r + 1]
        d, p, o, arcs, nb = _delta_sssp_core(
            l_indptr, l_indices, l_w, h_indptr, h_indices, h_w, n,
            run_src[lo:hi], offsets[lo:hi], ranks[lo:hi], delta,
        )
        dist[r * n : (r + 1) * n] = d
        parent[r * n : (r + 1) * n] = p
        owner[r * n : (r + 1) * n] = o
        arcs_out[r] = arcs
        buckets_out[r] = nb


def bucket_sssp_numba(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    sources: np.ndarray,
    offsets: np.ndarray,
    ranks: np.ndarray,
    delta: Optional[float],
    light_heavy: Optional[Tuple[np.ndarray, ...]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[int], List[int]]:
    """Numba wrapper matching :func:`repro.kernels.numpy_kernel.bucket_sssp`.

    With ``light_heavy`` (a :func:`split_light_heavy` partition) the
    call runs the compiled real-weight delta-stepping core; without it
    (the integer Dial path) the heap Dijkstra core.  Both cores are
    sequential, so bucket statistics are reconstructed: the work
    ledger gets the arcs actually scanned and one round per processed
    (or occupied) width-``delta`` bucket — the depth the equivalent
    bucket schedule would take.  Raises ``RuntimeError`` when numba is
    unavailable; use :func:`repro.kernels.resolve_backend` to fall
    back gracefully.
    """
    if not HAVE_NUMBA:  # defensive: the registry should prevent this
        raise RuntimeError("numba backend requested but numba is not installed")
    if light_heavy is not None:
        lip, lidx, lw, hip, hidx, hw = light_heavy
        dist, parent, owner, arcs, buckets = _delta_sssp_core(
            np.asarray(lip, dtype=np.int64),
            np.asarray(lidx, dtype=np.int64),
            np.asarray(lw, dtype=np.float64),
            np.asarray(hip, dtype=np.int64),
            np.asarray(hidx, dtype=np.int64),
            np.asarray(hw, dtype=np.float64),
            n,
            np.asarray(sources, dtype=np.int64),
            np.asarray(offsets, dtype=np.float64),
            np.asarray(ranks, dtype=np.int64),
            float(delta),
        )
        buckets = int(buckets)
        bucket_work = [int(arcs)] + [0] * max(buckets - 1, 0) if buckets else []
        # sequential core: like every sequential backend, the depth
        # ledger is reconstructed as one round per processed bucket
        # (the numpy kernel reports the real light/heavy round counts)
        bucket_rounds = [1] * buckets
        return dist, parent, owner, bucket_work, bucket_rounds
    dist, parent, owner, arcs = _heap_sssp_core(
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
        np.asarray(weights, dtype=np.float64),
        n,
        np.asarray(sources, dtype=np.int64),
        np.asarray(offsets, dtype=np.float64),
        np.asarray(ranks, dtype=np.int64),
    )
    from repro.kernels.numpy_kernel import count_occupied_buckets

    buckets = count_occupied_buckets(dist, delta)
    bucket_work = [int(arcs)] + [0] * max(buckets - 1, 0) if buckets else []
    bucket_rounds = [1] * buckets
    return dist, parent, owner, bucket_work, bucket_rounds


def bucket_sssp_batch_numba(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    run_src: np.ndarray,
    run_ptr: np.ndarray,
    offsets: np.ndarray,
    ranks: np.ndarray,
    delta: Optional[float],
    light_heavy: Optional[Tuple[np.ndarray, ...]] = None,
    workers: WorkersArg = DEFAULT_WORKERS,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[int], List[int]]:
    """Batch counterpart of :func:`repro.kernels.numpy_kernel.bucket_sssp_batch`.

    Each run is one compiled pass (no interpreter-per-edge cost): with
    ``light_heavy`` through the delta-stepping core, otherwise through
    the heap Dijkstra.  ``workers=1`` executes the runs one after
    another; ``workers > 1`` (or ``None`` = all cores) dispatches them
    through the ``prange``-parallel batch cores, capped at ``workers``
    numba threads — per-run scratch is thread-private, so distances,
    parents, owners *and* the reconstructed ledger are bit-identical
    to the sequential schedule.  The ledger reports total arcs as work
    and, as depth, one round per bucket of the *longest* run — the
    parallel composition a PRAM would see, matching the engine's batch
    accounting.
    """
    if not HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not installed")
    from repro.kernels.numpy_kernel import count_occupied_buckets

    run_src = np.asarray(run_src, dtype=np.int64)
    run_ptr = np.asarray(run_ptr, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.float64)
    ranks = np.asarray(ranks, dtype=np.int64)
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if light_heavy is not None:
        lip = np.asarray(light_heavy[0], dtype=np.int64)
        lidx = np.asarray(light_heavy[1], dtype=np.int64)
        lw = np.asarray(light_heavy[2], dtype=np.float64)
        hip = np.asarray(light_heavy[3], dtype=np.int64)
        hidx = np.asarray(light_heavy[4], dtype=np.int64)
        hw = np.asarray(light_heavy[5], dtype=np.float64)
    k = run_ptr.shape[0] - 1
    dist = np.empty(k * n, dtype=np.float64)
    parent = np.empty(k * n, dtype=np.int64)
    owner = np.empty(k * n, dtype=np.int64)
    nw = effective_workers(workers)

    if nw > 1 and k > 1:
        arcs_out = np.zeros(k, dtype=np.int64)
        if light_heavy is not None:
            buckets_out = np.zeros(k, dtype=np.int64)
            with _numba_thread_cap(nw):
                _delta_sssp_batch_core(
                    lip, lidx, lw, hip, hidx, hw, n,
                    run_src, run_ptr, offsets, ranks, float(delta),
                    dist, parent, owner, arcs_out, buckets_out,
                )
            max_buckets = int(buckets_out.max()) if k else 0
        else:
            with _numba_thread_cap(nw):
                _heap_sssp_batch_core(
                    indptr, indices, w, n, run_src, run_ptr, offsets, ranks,
                    dist, parent, owner, arcs_out,
                )
            max_buckets = 0
            for r in range(k):
                sl = slice(r * n, (r + 1) * n)
                max_buckets = max(max_buckets, count_occupied_buckets(dist[sl], delta))
        total_arcs = int(arcs_out.sum())
    else:
        total_arcs = 0
        max_buckets = 0
        for r in range(k):
            lo, hi = int(run_ptr[r]), int(run_ptr[r + 1])
            if light_heavy is not None:
                d, p, o, arcs, nb = _delta_sssp_core(
                    lip, lidx, lw, hip, hidx, hw, n,
                    run_src[lo:hi], offsets[lo:hi], ranks[lo:hi], float(delta),
                )
                max_buckets = max(max_buckets, int(nb))
            else:
                d, p, o, arcs = _heap_sssp_core(
                    indptr, indices, w, n,
                    run_src[lo:hi], offsets[lo:hi], ranks[lo:hi],
                )
                max_buckets = max(max_buckets, count_occupied_buckets(d, delta))
            sl = slice(r * n, (r + 1) * n)
            dist[sl], parent[sl], owner[sl] = d, p, o
            total_arcs += int(arcs)
    bucket_work = [total_arcs] + [0] * max(max_buckets - 1, 0) if max_buckets else []
    bucket_rounds = [1] * max_buckets
    return dist, parent, owner, bucket_work, bucket_rounds
