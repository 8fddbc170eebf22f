"""Immutable CSR (compressed sparse row) graph.

Design notes
------------
The paper's algorithms are all *edge-centric* parallel algorithms: each
PRAM round touches every edge of a frontier with vectorizable work.  The
natural Python substrate is therefore a struct-of-arrays CSR layout:

``indptr``
    ``int64[n+1]`` — half-open neighbor ranges per vertex.
``indices``
    ``int32/int64[2m]`` — neighbor vertex ids (both directions stored,
    i.e. the symmetric adjacency of an undirected graph).
``weights``
    ``float64[2m]`` — per-direction edge weights.
``edge_ids``
    ``int64[2m]`` — for CSR slot ``j``, the id of the *undirected* edge
    it came from (both directions share one id).  This is what lets the
    weighted spanner algorithm contract quotient graphs repeatedly and
    still emit original edge ids into the spanner.

All arrays are read-only views (``writeable=False``) so algorithms can
share a graph across sub-calls without defensive copies — matching the
"views, not copies" guidance for numerical Python.

The undirected edge list itself is kept as ``edge_u``, ``edge_v``,
``edge_w`` (each ``m`` long); CSR slots reference it through
``edge_ids``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.dedup import stable_argsort


def _freeze(a: np.ndarray) -> np.ndarray:
    # np.ascontiguousarray on an already-contiguous array (including a
    # np.memmap: subok=False demotes it to a base-class ndarray *view*)
    # is copy-free, so freezing never materializes memmap pages
    a = np.ascontiguousarray(a)
    if a.flags.writeable:
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CSRGraph:
    """Undirected weighted graph in CSR form with edge-id tracking.

    Construct through :func:`repro.graph.builders.from_edges` rather than
    directly; the builder deduplicates, symmetrizes, and validates.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    edge_ids: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(self.edge_u.shape[0])

    @property
    def num_arcs(self) -> int:
        """Number of directed CSR slots (2m for simple graphs)."""
        return int(self.indices.shape[0])

    def _weight_stats(self) -> Tuple[float, float, bool]:
        """Lazily memoized ``(min, max, is_unweighted)`` over ``edge_w``.

        These are consulted on every clustering round; the arrays are
        immutable, so one full scan per graph suffices (the memo slips
        past the frozen dataclass via ``object.__setattr__``).
        """
        cached = self.__dict__.get("_wstats")
        if cached is None:
            if self.m:
                w_min = float(self.edge_w.min())
                w_max = float(self.edge_w.max())
                cached = (w_min, w_max, w_min == 1.0 == w_max)
            else:
                cached = (0.0, 0.0, True)
            object.__setattr__(self, "_wstats", cached)
        return cached

    @property
    def is_unweighted(self) -> bool:
        """True when every edge weight equals 1."""
        return self._weight_stats()[2]

    @property
    def max_weight(self) -> float:
        return self._weight_stats()[1]

    @property
    def min_weight(self) -> float:
        return self._weight_stats()[0]

    @property
    def weight_ratio(self) -> float:
        """U = max weight / min weight (1.0 for empty graphs)."""
        if self.m == 0:
            return 1.0
        return self.max_weight / self.min_weight

    def suggest_delta(self) -> float:
        """Bucket width for real-weight delta-stepping on this graph:
        ``max_w / average degree`` over the cached weight stats (see
        :func:`repro.kernels.numpy_kernel.suggest_delta`)."""
        from repro.kernels.numpy_kernel import suggest_delta

        return suggest_delta(self.n, self.num_arcs, self.max_weight)

    def light_heavy_split(self, delta: float) -> Tuple[np.ndarray, ...]:
        """Cached light/heavy arc partition of the CSR at width ``delta``.

        Returns :func:`repro.kernels.numpy_kernel.split_light_heavy`'s
        ``(l_indptr, l_indices, l_weights, h_indptr, h_indices,
        h_weights)``.  The arrays are immutable, so one split per
        distinct ``delta`` is computed and memoized on the instance
        (the engine re-requests the same ``delta`` for every search on
        a graph); the memo is bounded to keep repeated ad-hoc widths
        from pinning arrays, evicting the *least recently used* width
        — a burst of one-off deltas must not force a re-split of the
        hot default width mid-run.
        """
        from repro.kernels.numpy_kernel import split_light_heavy

        key = float(delta)
        cache = self.__dict__.get("_lh_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_lh_cache", cache)
        split = cache.get(key)
        if split is None:
            if len(cache) >= 8:
                cache.pop(next(iter(cache)))  # evict the LRU entry only
            split = split_light_heavy(self.indptr, self.indices, self.weights, key)
            cache[key] = split
        else:
            # LRU touch: re-insert so a hit moves the width to the back
            # of the eviction order (dicts iterate in insertion order)
            cache[key] = cache.pop(key)
        return split

    def degree(self, v: Optional[int] = None) -> np.ndarray | int:
        """Degree of vertex ``v``, or the full degree array if ``v`` is None."""
        if v is None:
            return np.diff(self.indptr)
        return int(self.indptr[v + 1] - self.indptr[v])

    # ------------------------------------------------------------------
    # neighbor access
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of ``v`` (read-only view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_edge_ids(self, v: int) -> np.ndarray:
        return self.edge_ids[self.indptr[v] : self.indptr[v + 1]]

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate undirected edges as ``(u, v, w)`` tuples (slow path; tests only)."""
        for i in range(self.m):
            yield int(self.edge_u[i]), int(self.edge_v[i]), float(self.edge_w[i])

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def edges_array(self) -> np.ndarray:
        """(m, 2) int array of undirected endpoints."""
        return np.stack([self.edge_u, self.edge_v], axis=1)

    def to_scipy(self) -> Any:
        """Return the symmetric adjacency as ``scipy.sparse.csr_matrix``."""
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (self.weights, self.indices, self.indptr), shape=(self.n, self.n)
        )

    def arc_sources(self) -> np.ndarray:
        """For each CSR slot, the source vertex (expanded from indptr)."""
        return np.repeat(np.arange(self.n, dtype=self.indices.dtype), np.diff(self.indptr))

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "unweighted" if self.is_unweighted else "weighted"
        return f"CSRGraph(n={self.n}, m={self.m}, {kind})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:  # frozen dataclass wants it; identity is fine
        return id(self)


def csr_from_arrays(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    edge_ids: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_w: np.ndarray,
) -> CSRGraph:
    """Wrap *already-assembled* CSR + edge arrays as a :class:`CSRGraph`
    without sorting, casting, or copying.

    This is the construction path for storage formats that persist the
    CSR layout directly (:mod:`repro.graph.storage` stores,
    :func:`repro.graph.io.save_npz` archives): loading must not repeat the
    counting-sort that :func:`build_csr` already did at build time, and
    ``np.memmap``-backed arrays must pass through untouched so their
    pages stay lazy.  Integer arrays may be compact dtypes (``int32``
    when the value range allows) — every consumer indexes with them,
    and numpy promotes in arithmetic.

    Only O(1) structural checks are performed (the caller vouches for
    the content, exactly as with :func:`build_csr`): array lengths must
    be mutually consistent and ``indptr`` must cover ``indices``.
    """
    num_arcs = int(indices.shape[0])
    m = int(edge_u.shape[0])
    if indptr.shape[0] != n + 1:
        raise GraphFormatError(
            f"indptr must have n + 1 = {n + 1} entries, got {indptr.shape[0]}"
        )
    if weights.shape[0] != num_arcs or edge_ids.shape[0] != num_arcs:
        raise GraphFormatError("weights/edge_ids must match indices length")
    if edge_v.shape[0] != m or edge_w.shape[0] != m:
        raise GraphFormatError("edge arrays must have equal length")
    if (n and (int(indptr[0]) != 0 or int(indptr[-1]) != num_arcs)) or (
        n == 0 and num_arcs
    ):
        raise GraphFormatError("indptr does not cover the arc arrays")
    return CSRGraph(
        n=n,
        indptr=_freeze(indptr),
        indices=_freeze(indices),
        weights=_freeze(weights),
        edge_ids=_freeze(edge_ids),
        edge_u=_freeze(edge_u),
        edge_v=_freeze(edge_v),
        edge_w=_freeze(edge_w),
    )


def build_csr(
    n: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_w: np.ndarray,
) -> CSRGraph:
    """Assemble a :class:`CSRGraph` from *deduplicated* undirected edges.

    The caller guarantees ``edge_u[i] < edge_v[i]`` and no duplicate
    pairs; use :func:`repro.graph.builders.from_edges` for raw input.

    Assembly is fully vectorized and O(n + m): the symmetric arc list
    is built by concatenation, ordered by source vertex with
    :func:`~repro.graph.dedup.stable_argsort` (16-bit radix passes, so
    arcs of one source keep their concatenation order), and ``indptr``
    is the running sum of one ``bincount``.
    """
    m = edge_u.shape[0]
    if not (edge_v.shape[0] == m == edge_w.shape[0]):
        raise GraphFormatError("edge arrays must have equal length")
    if m and (edge_w <= 0).any():
        raise GraphFormatError("edge weights must be positive")

    src = np.concatenate([edge_u, edge_v])
    dst = np.concatenate([edge_v, edge_u])
    w2 = np.concatenate([edge_w, edge_w])
    eid = np.concatenate([np.arange(m, dtype=np.int64)] * 2) if m else np.empty(0, np.int64)

    order = stable_argsort(src)
    dst = dst[order]
    w2 = w2[order]
    eid = eid[order]

    indptr = np.zeros(n + 1, dtype=np.int64)
    if m:
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

    return CSRGraph(
        n=n,
        indptr=_freeze(indptr),
        indices=_freeze(dst.astype(np.int64, copy=False)),
        weights=_freeze(w2.astype(np.float64, copy=False)),
        edge_ids=_freeze(eid),
        edge_u=_freeze(edge_u.astype(np.int64, copy=False)),
        edge_v=_freeze(edge_v.astype(np.int64, copy=False)),
        edge_w=_freeze(edge_w.astype(np.float64, copy=False)),
    )
