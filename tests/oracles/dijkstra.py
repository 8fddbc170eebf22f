"""The pure-Python heapq Dijkstra, and adapters that run the engine on it.

:func:`dijkstra_reference` is the sequential Dijkstra that Theorem
1.2's work bound is compared against: one heap pop per vertex, with
equal keys popped in source-rank order, returning its own parents and
owners.  It doubles as a second kernel for whole pipelines:
:func:`engine_kernel` swaps :func:`reference_bucket_sssp` and
:func:`reference_bucket_sssp_batch` in for the engine's numpy kernels,
and every kernel-independent output (distances, the forests derived
from them, spanner and hopset edge sets) must come out the same.
``benchmarks/bench_engine.py`` times :func:`dijkstra_reference` as the
engine's sequential baseline.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple
from unittest import mock

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.numpy_kernel import INT_INF
from repro.paths import engine

#: every kernel the engine can run on: the numpy kernels and this
#: heapq oracle
KERNELS = ["numpy", "reference"]


def count_occupied_buckets(dist: np.ndarray, delta: float) -> int:
    """Distinct width-``delta`` distance bands among the finite ``dist``:
    the depth the equivalent bucket schedule would take, which the
    adapters below report as their round count."""
    reached = dist[np.isfinite(dist)]
    if reached.shape[0] == 0:
        return 0
    return int(np.unique((reached // float(delta)).astype(np.int64)).shape[0])


def _heapq_dijkstra(
    indptr: np.ndarray,
    indices: np.ndarray,
    w: np.ndarray,
    n: int,
    sources: np.ndarray,
    offsets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    dist = np.full(n, np.inf, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    owner = np.full(n, -1, dtype=np.int64)
    done = np.zeros(n, dtype=bool)

    heap: list[tuple[float, int, int, int, int, int]] = []
    for i, (s, off) in enumerate(zip(sources, offsets)):
        # tuple: (key, owner rank, relaxing vertex, vertex, parent,
        # owner); rank first so equal-key pops favor the earlier
        # source entry.
        heapq.heappush(heap, (float(off), i, -1, int(s), -1, int(s)))

    while heap:
        d, r, _, v, p, o = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        dist[v] = d
        parent[v] = p
        owner[v] = o
        for j in range(indptr[v], indptr[v + 1]):
            u = int(indices[j])
            if not done[u]:
                nd = d + float(w[j])
                if nd < dist[u]:
                    dist[u] = nd
                    heapq.heappush(heap, (nd, r, v, u, v, o))
    return dist, parent, owner


def dijkstra_reference(
    g: CSRGraph,
    sources: np.ndarray | int,
    offsets: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multi-source heapq Dijkstra with optional real start offsets.

    ``dist[v]`` is ``min_i offsets[i] + d(sources[i], v)``, as from
    :func:`repro.paths.shortest_paths`; ``owner[v]`` is the arg-min
    source (ties broken toward the earlier entry in ``sources``) and
    ``parent`` the shortest-path-tree parent, which equal
    :func:`repro.paths.shortest_path_forest`'s wherever shortest paths
    are unique.  ``weights`` overrides the CSR slot weights.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if offsets is None:
        offsets = np.zeros(sources.shape[0], dtype=np.float64)
    w = g.weights if weights is None else weights
    return _heapq_dijkstra(
        g.indptr, g.indices, np.asarray(w, dtype=np.float64), g.n, sources,
        np.asarray(offsets, dtype=np.float64),
    )


def reference_bucket_sssp_batch(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    run_src: np.ndarray,
    run_ptr: np.ndarray,
    offsets: np.ndarray,
    delta: float,
    light_heavy: Optional[Tuple[np.ndarray, ...]] = None,
) -> Tuple[np.ndarray, List[int], List[int]]:
    """:func:`repro.kernels.numpy_kernel.bucket_sssp_batch`'s contract,
    one heapq search per run.

    Integer weights and offsets give ``int64`` distances, as on the
    numpy kernel.  A search does not simulate the bucket schedule, so
    its ledger is synthetic: ``2m + n`` work per run that reaches
    anything and one round per occupied width-``delta`` bucket of the
    longest run.  Tests keep it out of ledger equality.
    """
    int_mode = np.issubdtype(np.asarray(weights).dtype, np.integer) and (
        np.issubdtype(np.asarray(offsets).dtype, np.integer)
    )
    w = np.asarray(weights, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    k = run_ptr.shape[0] - 1
    dist = np.full(k * n, INT_INF if int_mode else np.inf,
                   dtype=np.int64 if int_mode else np.float64)
    work = buckets = 0
    for r in range(k):
        lo, hi = int(run_ptr[r]), int(run_ptr[r + 1])
        d, _, _ = _heapq_dijkstra(
            indptr, indices, w, n, run_src[lo:hi], offsets[lo:hi]
        )
        b = count_occupied_buckets(d, delta)
        if b:
            work += indices.shape[0] + n
        buckets = max(buckets, b)
        row = dist[r * n : (r + 1) * n]
        finite = np.isfinite(d)
        row[finite] = np.rint(d[finite]) if int_mode else d[finite]
    bucket_work = [work] + [0] * (buckets - 1) if buckets else []
    return dist, bucket_work, [1] * buckets


def reference_bucket_sssp(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    sources: np.ndarray,
    offsets: np.ndarray,
    delta: float,
    light_heavy: Optional[Tuple[np.ndarray, ...]] = None,
) -> Tuple[np.ndarray, List[int], List[int]]:
    """:func:`repro.kernels.numpy_kernel.bucket_sssp`'s contract: the
    one-run case of :func:`reference_bucket_sssp_batch`."""
    sources = np.asarray(sources, dtype=np.int64)
    run_ptr = np.asarray([0, sources.shape[0]], dtype=np.int64)
    return reference_bucket_sssp_batch(
        indptr, indices, weights, n, sources, run_ptr, offsets, delta
    )


@contextmanager
def engine_kernel(name: str) -> Iterator[None]:
    """Run the engine on kernel ``name`` until the block exits.

    ``"reference"`` swaps the heapq adapters in for the engine's numpy
    kernels; ``"numpy"`` leaves them in place.
    """
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; choose from {KERNELS}")
    if name == "numpy":
        yield
        return
    with mock.patch.multiple(
        engine,
        bucket_sssp=reference_bucket_sssp,
        bucket_sssp_batch=reference_bucket_sssp_batch,
    ):
        yield
