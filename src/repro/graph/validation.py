"""Structural validators for :class:`~repro.graph.csr.CSRGraph`, and
the one vertex-id check every entry point shares.

The graph validators are used by tests and by ``verify=True`` code
paths of the algorithms; they raise
:class:`~repro.errors.VerificationError` on violation so checks survive
``python -O``.  :func:`check_vertex_ids` raises the caller's input-error
type instead.
"""

from __future__ import annotations

from typing import Any, Optional, Type

import numpy as np

from repro.errors import ParameterError, ReproError, VerificationError
from repro.graph.csr import CSRGraph


def validate_graph(g: CSRGraph) -> None:
    """Check every CSR invariant; raise VerificationError on the first failure."""
    if g.indptr.shape[0] != g.n + 1:
        raise VerificationError("indptr length != n+1")
    if g.indptr[0] != 0 or g.indptr[-1] != g.indices.shape[0]:
        raise VerificationError("indptr endpoints wrong")
    if (np.diff(g.indptr) < 0).any():
        raise VerificationError("indptr not monotone")
    if g.indices.shape != g.weights.shape or g.indices.shape != g.edge_ids.shape:
        raise VerificationError("CSR arrays of mismatched length")
    if g.m and (g.indices < 0).any() or g.m and (g.indices >= g.n).any():
        raise VerificationError("neighbor id out of range")
    if g.indices.shape[0] != 2 * g.m:
        raise VerificationError("arc count != 2m (graph not simple/symmetric?)")
    if g.m:
        if (g.edge_u >= g.edge_v).any():
            raise VerificationError("edge list not canonically oriented (u < v)")
        if (g.edge_w <= 0).any():
            raise VerificationError("non-positive edge weight")
        key = g.edge_u * np.int64(g.n) + g.edge_v
        if np.unique(key).shape[0] != g.m:
            raise VerificationError("duplicate undirected edges")
        # CSR weights and ids must be consistent with the edge list
        if not np.allclose(g.weights, g.edge_w[g.edge_ids]):
            raise VerificationError("CSR weights disagree with edge list")
        src = g.arc_sources()
        ok_fwd = (src == g.edge_u[g.edge_ids]) & (g.indices == g.edge_v[g.edge_ids])
        ok_bwd = (src == g.edge_v[g.edge_ids]) & (g.indices == g.edge_u[g.edge_ids])
        if not (ok_fwd | ok_bwd).all():
            raise VerificationError("CSR arcs disagree with edge endpoints")
        # symmetry: each undirected edge appears exactly twice
        counts = np.bincount(g.edge_ids, minlength=g.m)
        if not (counts == 2).all():
            raise VerificationError("edge id not present exactly twice in CSR")


def is_subgraph(h: CSRGraph, g: CSRGraph) -> bool:
    """True iff every edge of ``h`` is an edge of ``g`` with equal weight."""
    if h.n != g.n:
        return False
    if h.m == 0:
        return True
    gk = g.edge_u * np.int64(g.n) + g.edge_v
    hk = h.edge_u * np.int64(g.n) + h.edge_v
    pos = np.searchsorted(gk, hk)
    ok = (pos < g.m) & (gk[np.minimum(pos, g.m - 1)] == hk)
    if not ok.all():
        return False
    return bool(np.allclose(g.edge_w[pos], h.edge_w))


def check_vertex_ids(
    ids: Any,
    n: Optional[int],
    what: str = "source",
    error: Type[ReproError] = ParameterError,
) -> np.ndarray:
    """Convert raw vertex ids to a 1-D ``int64`` array, raising
    ``error`` naming the first bad one unless every id is an integral
    value in ``[0, n)``.  ``n=None`` skips the range check, for ids not
    yet bound to a graph.

    Ids are checked where they enter the library and *before* any cast,
    so a bad id fails by name instead of answering for another vertex:
    ``np.asarray(1.7, dtype=np.int64)`` is vertex 1, and numpy reads
    ``-1`` as ``n - 1``.  A scalar becomes a length-1 array; integral
    floats such as ``2.0`` pass; non-finite or fractional values and
    arrays of more than one dimension are refused.
    """
    try:
        arr = np.asarray(ids)
    except ValueError:  # ragged nesting
        raise error(f"{what} ids must be a scalar or a 1-D array") from None
    if arr.ndim > 1:
        raise error(f"{what} ids must be a scalar or a 1-D array, got shape {arr.shape}")
    arr = arr.reshape(-1)
    if arr.dtype.kind not in "iu":
        try:
            vals = arr.astype(np.float64)
        except (TypeError, ValueError):
            raise error(f"{what} ids must be integers, got {arr.dtype} values") from None
        ok = np.isfinite(vals) & (vals == np.rint(vals)) & (np.abs(vals) < 2.0**63)
        if not ok.all():
            raise error(f"{what} {arr[np.argmin(ok)]} is not an integer vertex id")
        arr = vals.astype(np.int64)
    if n is not None and arr.size and (int(arr.min()) < 0 or int(arr.max()) >= n):
        bad = int(arr[(arr < 0) | (arr >= n)][0])
        raise error(f"{what} {bad} out of range [0, {n})")
    return arr.astype(np.int64, copy=False)
