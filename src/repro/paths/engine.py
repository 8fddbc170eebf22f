"""Bucket-parallel multi-source shortest-path engine.

This module is the single entry point for every *weighted* exact search
in the repo (the weighted analogue of :mod:`repro.paths.bfs`).  It
replaces the pure-Python heap Dijkstra hot path with the bucket
relaxation kernels of :mod:`repro.kernels`: tentative distances are
grouped into width-``delta`` buckets and each relaxation round is one
batched numpy gather/scatter over all frontier arcs — delta-stepping
with Dial buckets as the integer-weight special case.

Engine API
----------
:func:`shortest_paths` is the workhorse::

    res = shortest_paths(g, sources, offsets=start_times, tracker=t)
    res.dist                             # distances
    res.buckets, res.relax_rounds        # PRAM depth structure
    res.arcs_relaxed                     # PRAM work

``sources`` may be a scalar, and ``offsets`` give each source a real
(or integer) start time — the shifted-start race that exact EST
clustering is defined by.  A search returns distances only; a caller
that wants the shortest-path forest (each vertex's parent and arg-min
source) derives it from them with
:func:`repro.paths.trees.shortest_path_forest`.  ``weights`` overrides
the graph's CSR weights (used by the rounded-graph pipelines; an
``int64`` override at ``delta=1`` is Section 5's weighted parallel
BFS).  Sources must be
integral vertex ids in ``[0, n)`` (a scalar or a 1-D array), offsets
one finite entry per source, override weights one finite non-negative
entry per CSR slot, and ``delta`` positive and finite; anything else
raises :class:`~repro.errors.ParameterError`.

:func:`shortest_paths_batch` runs ``k`` *independent* searches in one
call and returns their ``(k, n)`` distance matrix::

    res = shortest_paths_batch(g, [3, 17, 42], tracker=t)
    res.dist[i]                          # distances of run i

Each run may itself be multi-source (pass a sequence of source arrays
instead of a flat array of singletons).  Every source starts at integer
zero and the bucket width is the default one: the batch's two callers
need nothing else, and start offsets or a ``delta`` stay
:func:`shortest_paths` options.  The runs
advance together as one source-tagged frontier — every gather/scatter
round relaxes the frontier arcs of *all* runs — so ``k`` searches cost
one schedule instead of ``k``.  The level-synchronous hopset builder
leans on this to resolve every large-cluster center search of a
recursion level in a single call, and the distance server to fill its
cache rows.  Both calls return the same :class:`ShortestPathResult`,
whose ``dist`` is ``(n,)`` for one search and ``(k, n)`` for a batch.
The dense ``(k, n)`` output means ``k`` should stay moderate (the
builder chunks its runs); the tracker is charged the runs' *parallel*
composition: ``work`` sums over runs, ``rounds`` is the shared
schedule length.

Kernels
-------
Every search runs the frontier-vectorized bucket relaxation of
:mod:`repro.kernels.numpy_kernel`, serially: exact and deterministic.
The sequential heapq Dijkstra that Theorem 1.2 measures work against
is a test oracle (``tests/oracles/dijkstra.py``); tests run whole
pipelines on it by swapping it in for this module's kernel functions.

Integer weights *and* integer offsets switch distances to ``int64``
and default ``delta`` to 1 — exact Dial buckets, i.e. the "weighted
parallel BFS" of Section 5 whose depth is the number of distance
levels.  This integer fast path is preserved bit-for-bit.  Otherwise
distances are ``float64`` and the engine runs *true delta-stepping*:
the graph's arcs are partitioned into light (``w <= delta``) and heavy
(``w > delta``) halves — cached per ``(graph, delta)`` via
:meth:`CSRGraph.light_heavy_split` — and each bucket runs the
light-edge fixpoint loop plus a single heavy settle pass.  ``delta``
defaults to ``max_w / average degree``
(:meth:`CSRGraph.suggest_delta`, the Meyer–Sanders heuristic); the
tracker sees every light iteration and the heavy pass as separate
relaxation rounds.

Bucket/round <-> PRAM accounting
--------------------------------
One relaxation round = one CRCW PRAM round (every frontier arc relaxes
concurrently; concurrent claims on a vertex are one concurrent
min-write).  The tracker is charged ``work = arcs relaxed`` (floored
at the frontier size) and ``rounds = total relaxation rounds``; with
Dial buckets each bucket is exactly one round, so ``tracker.rounds``
equals the number of distance levels swept — the paper's depth
accounting for weighted searches.  ``res.buckets`` counts buckets
processed (the outer sequential dimension) and ``res.relax_rounds``
the inner total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.graph.validation import check_vertex_ids
from repro.kernels import bucket_sssp, bucket_sssp_batch, check_backend
from repro.kernels.numpy_kernel import split_light_heavy, suggest_delta
from repro.pram.tracker import PramTracker


def check_finite(name: str, values: np.ndarray, nonnegative: bool = False) -> None:
    """Raise :class:`ParameterError` naming ``name`` unless every entry
    is finite (and ``>= 0`` when ``nonnegative``).

    NaN and infinity never fail on their own inside a race: they leave
    every vertex unreached, break a bucket index, or (with negative
    weights) keep a search from finishing.
    """
    ok = np.isfinite(values)
    if nonnegative:
        ok &= values >= 0
    if not ok.all():
        rule = "finite and non-negative" if nonnegative else "finite"
        raise ParameterError(f"{name} must be {rule}, got {values[~ok][0]}")


@dataclass(frozen=True)
class ShortestPathResult:
    """Distances plus the PRAM-shaped execution statistics.

    ``dist`` is ``(n,)`` for :func:`shortest_paths` and ``(k, n)`` for
    :func:`shortest_paths_batch` (row ``r`` is run ``r``), ``float64``
    (``inf`` when unreached) or ``int64`` (``INT_INF``) in Dial mode.
    ``buckets`` is the number of buckets processed, ``relax_rounds``
    the total relaxation rounds (equal to ``buckets`` under Dial), and
    ``arcs_relaxed`` the PRAM work spent; a batch is one parallel
    composition, so its work sums over runs and its rounds are the
    shared schedule length.
    """

    dist: np.ndarray
    buckets: int
    relax_rounds: int
    arcs_relaxed: int
    delta: float


def shortest_paths(
    g: CSRGraph,
    sources: np.ndarray | int,
    offsets: Optional[np.ndarray] = None,
    *,
    weights: Optional[np.ndarray] = None,
    delta: Optional[float] = None,
    backend: Optional[str] = None,
    tracker: Optional[PramTracker] = None,
    workers: Optional[int] = None,
) -> ShortestPathResult:
    """Exact multi-source shortest paths with optional start offsets.

    See the module docstring for the full API contract.  ``dist[v]``
    is ``min_i offsets[i] + d(sources[i], v)``.

    ``backend`` (``None`` or ``"numpy"``; anything else raises
    :class:`ParameterError`) and the unused ``workers`` remain only
    because the repository benchmark passes them; they go with
    ROADMAP item 10(d).
    """
    check_backend(backend)
    sources = check_vertex_ids(sources, g.n)
    offsets = _offsets_for(sources, offsets)
    w, int_mode, delta = _resolve_weights_and_delta(g, weights, offsets, delta)
    split = _resolve_split(g, weights, w, delta, int_mode)
    dist, bucket_work, bucket_rounds = bucket_sssp(
        g.indptr, g.indices, w, g.n, sources, offsets, delta, light_heavy=split,
    )
    return _charge(tracker, dist, bucket_work, bucket_rounds, delta)


def _charge(
    tracker: Optional[PramTracker],
    dist: np.ndarray,
    bucket_work: List[int],
    bucket_rounds: List[int],
    delta: float,
) -> ShortestPathResult:
    """Charge a kernel's ledger to ``tracker`` as one parallel round
    (nothing when no bucket ran) and wrap its distances."""
    work = int(sum(bucket_work))
    rounds = int(sum(bucket_rounds))
    if tracker is not None and (work or rounds):
        tracker.parallel_round(work=work, rounds=max(rounds, 1))
    return ShortestPathResult(
        dist=dist,
        buckets=len(bucket_work),
        relax_rounds=rounds,
        arcs_relaxed=work,
        delta=float(delta),
    )


def _offsets_for(sources: np.ndarray, offsets: Optional[Any]) -> np.ndarray:
    """Start offsets for ``sources``: all-zero integers when ``None``
    (keeping Dial mode available), else exactly one 1-D entry per
    source."""
    if offsets is None:
        return np.zeros(sources.shape[0], dtype=np.int64)
    offsets = np.asarray(offsets)
    if offsets.shape != sources.shape:
        raise ParameterError(
            f"offsets must hold one entry per source, shape {sources.shape}; "
            f"got shape {offsets.shape}"
        )
    return offsets


def _normalize_runs(
    sources: Union[np.ndarray, int, Sequence[Any]], n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten batch sources into ``(run_src, run_ptr)``, checking
    every source against ``[0, n)``.

    ``sources`` is either a flat integer array (k singleton runs) or a
    sequence of per-run source arrays.
    """
    is_flat = np.isscalar(sources) or (
        isinstance(sources, np.ndarray) and sources.ndim <= 1
    )
    if not is_flat and not isinstance(sources, np.ndarray):
        seq = list(sources)
        is_flat = all(np.isscalar(s) or np.ndim(s) == 0 for s in seq)
        sources = np.asarray(seq) if is_flat else seq
    if is_flat:
        run_src = check_vertex_ids(sources, n)
        return run_src, np.arange(run_src.shape[0] + 1, dtype=np.int64)
    runs = [np.atleast_1d(np.asarray(r)) for r in sources]
    for r in runs:
        if r.ndim > 1:
            raise ParameterError(f"each run's sources must be 1-D, got shape {r.shape}")
    run_ptr = np.zeros(len(runs) + 1, dtype=np.int64)
    np.cumsum([r.shape[0] for r in runs], out=run_ptr[1:])
    # one check over every run's sources
    run_src = check_vertex_ids(
        np.concatenate(runs) if runs else np.empty(0, np.int64), n
    )
    return run_src, run_ptr


def shortest_paths_batch(
    g: CSRGraph,
    sources: Union[np.ndarray, int, Sequence[Any]],
    *,
    weights: Optional[np.ndarray] = None,
    tracker: Optional[PramTracker] = None,
) -> ShortestPathResult:
    """Run ``k`` independent shortest-path searches as one batch.

    Parameters
    ----------
    sources:
        Either a flat integer array — ``k`` single-source runs — or a
        sequence of source arrays, one per run (each run is then a
        multi-source search exactly as in :func:`shortest_paths`).
        Every source starts at integer zero, so integer weights select
        Dial mode, and the bucket width is the default one.

    Returns a ``(k, n)`` ``dist``: every run's row equals, value for
    value and dtype for dtype, a standalone :func:`shortest_paths`
    call's with the same sources.  See the module docstring for the
    sharing and accounting story.

    A degenerate batch — zero runs, or runs whose sources never settle
    anything — charges the tracker nothing (0 work, 0 rounds) and
    still returns correctly shaped ``(k, n)`` all-unreached matrices.
    """
    run_src, run_ptr = _normalize_runs(sources, g.n)
    offs = np.zeros(run_src.shape[0], dtype=np.int64)
    w, int_mode, delta = _resolve_weights_and_delta(g, weights, offs, None)
    split = _resolve_split(g, weights, w, delta, int_mode)
    dist, bucket_work, bucket_rounds = bucket_sssp_batch(
        g.indptr, g.indices, w, g.n, run_src, run_ptr, offs, delta,
        light_heavy=split,
    )
    k = run_ptr.shape[0] - 1
    return _charge(tracker, dist.reshape(k, g.n), bucket_work, bucket_rounds, delta)


def _resolve_weights_and_delta(
    g: CSRGraph,
    weights: Optional[np.ndarray],
    offsets: np.ndarray,
    delta: Optional[float],
) -> Tuple[np.ndarray, bool, float]:
    """Shared per-call setup: input validation (finite offsets, finite
    non-negative override weights, a positive finite ``delta``),
    integer (Dial) mode detection, and the default bucket width — one
    policy for single and batched calls."""
    w = g.weights if weights is None else np.asarray(weights)
    if w.shape != (g.num_arcs,):
        raise ParameterError(
            f"weights must have one entry per CSR slot, shape ({g.num_arcs},); "
            f"got shape {w.shape}"
        )
    if weights is not None:
        check_finite("weights", w, nonnegative=True)
    check_finite("offsets", offsets)
    int_mode = np.issubdtype(w.dtype, np.integer) and np.issubdtype(
        offsets.dtype, np.integer
    )
    if delta is None:
        if int_mode:
            delta = 1  # Dial: one bucket per distance level
        elif weights is None:
            delta = g.suggest_delta()  # cached max-weight stats
        else:
            delta = suggest_delta(
                g.n, g.num_arcs, float(w.max()) if w.shape[0] else 1.0
            )
    if not (delta > 0 and np.isfinite(delta)):
        raise ParameterError(f"delta must be positive and finite, got {delta}")
    if int_mode:
        delta = max(int(delta), 1)
    return w, int_mode, delta


def _resolve_split(
    g: CSRGraph,
    weights: Optional[np.ndarray],
    w: np.ndarray,
    delta: float,
    int_mode: bool,
) -> Optional[Tuple[np.ndarray, ...]]:
    """Light/heavy arc partition for the float (true delta-stepping)
    path; ``None`` keeps the integer Dial schedule bit-for-bit."""
    if int_mode:
        return None
    if weights is None:
        return g.light_heavy_split(delta)
    return split_light_heavy(g.indptr, g.indices, w, delta)
