"""Quotient graphs G/H: contraction with edge-id tracking.

The paper repeatedly forms ``G[A_i] / H_{i-1}`` — the bucket-``i``
subgraph with everything connected by the spanner-so-far contracted to
points, parallel edges merged by keeping the shortest representative
(Section 2 notation).  :func:`quotient_graph` implements exactly this,
and crucially reports, for every *quotient* edge, the id of the original
edge it represents, so the spanner can be assembled in original-graph
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph, build_csr
from repro.graph.dedup import first_of_runs, presence_unique


@dataclass(frozen=True)
class QuotientResult:
    """Output of :func:`quotient_graph`.

    Attributes
    ----------
    graph:
        The quotient multigraph collapsed to a simple graph (parallel
        edges merged by minimum weight, self loops dropped).
    vertex_map:
        ``int64[n_orig]`` — quotient vertex id of each original vertex
        (only meaningful for vertices that appear in ``labels``).
    rep_edge_ids:
        ``int64[m_quotient]`` — for quotient edge ``j``, the id (in the
        *edge id space of the input arrays*) of the surviving
        representative edge.
    """

    graph: CSRGraph
    vertex_map: np.ndarray
    rep_edge_ids: np.ndarray


def quotient_graph(
    labels: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_w: np.ndarray,
    edge_ids: np.ndarray | None = None,
) -> QuotientResult:
    """Contract vertices with equal ``labels`` and rebuild a simple graph.

    Parameters
    ----------
    labels:
        Arbitrary integer labels per original vertex; each distinct label
        becomes one quotient vertex.  Labels need not be compact.
    edge_u, edge_v, edge_w:
        Undirected edge arrays over original vertex ids.
    edge_ids:
        Optional identifiers carried along (defaults to 0..m-1).

    Fully vectorized: label compaction via ``np.unique``, self-loop
    removal via a mask, parallel-edge merge via
    :func:`~repro.graph.dedup.first_of_runs` on runs of ``(u', v')``
    keeping the lightest edge of each (the earliest on ties).
    """
    labels = np.asarray(labels, dtype=np.int64)
    uniq, vmap = np.unique(labels, return_inverse=True)
    nq = uniq.shape[0]

    if edge_ids is None:
        edge_ids = np.arange(edge_u.shape[0], dtype=np.int64)
    else:
        edge_ids = np.asarray(edge_ids, dtype=np.int64)

    qu = vmap[edge_u]
    qv = vmap[edge_v]
    keep = qu != qv
    qu, qv, w, ids = qu[keep], qv[keep], edge_w[keep], edge_ids[keep]

    swap = qu > qv
    qu2 = np.where(swap, qv, qu)
    qv2 = np.where(swap, qu, qv)

    if qu2.size:
        keep = first_of_runs((qu2, qv2), prefer=(w,))
        qu2, qv2, w, ids = qu2[keep], qv2[keep], w[keep], ids[keep]

    g = build_csr(nq, qu2, qv2, np.asarray(w, dtype=np.float64))
    return QuotientResult(graph=g, vertex_map=vmap, rep_edge_ids=ids)


def contract_graph(g: CSRGraph, labels: np.ndarray) -> QuotientResult:
    """Convenience wrapper: contract a :class:`CSRGraph` by vertex labels."""
    return quotient_graph(labels, g.edge_u, g.edge_v, g.edge_w)


@dataclass(frozen=True)
class QuotientForestResult:
    """Output of :func:`quotient_forest`: per-group quotients side by side.

    Attributes
    ----------
    graph:
        Block-diagonal union of every group's quotient graph: group
        ``j`` occupies the contiguous vertex range
        ``[ptr[j], ptr[j+1])`` and no edge crosses groups, so one
        frontier algorithm on ``graph`` runs all groups' quotients at
        once (the substrate of the level-synchronous spanner builder).
    ptr:
        ``int64[num_groups + 1]`` — block boundaries.
    rep_edge_ids:
        ``int64[m_union]`` — for union edge ``j``, the id (in the edge
        id space of the input arrays) of the surviving representative.
    vertex_reps:
        ``int64[n_union]`` — the original label each union vertex
        stands for (block-local contraction class representative).
    """

    graph: CSRGraph
    ptr: np.ndarray
    rep_edge_ids: np.ndarray
    vertex_reps: np.ndarray

    @property
    def num_groups(self) -> int:
        return int(self.ptr.shape[0] - 1)


def quotient_forest(
    edge_group: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_w: np.ndarray,
    num_groups: int,
    span: int,
    edge_ids: np.ndarray | None = None,
) -> QuotientForestResult:
    """Batch version of :func:`quotient_graph` over independent groups.

    Each group carries its own contraction (its edges' endpoint labels
    are already that group's class representatives, e.g. union–find
    roots); the result packs every group's quotient as one block of a
    block-diagonal CSR union — one ``presence_unique`` over group-tagged
    endpoint keys and one radix-ordered parallel-edge dedup
    (:func:`~repro.graph.dedup.first_of_runs`) for the whole level,
    however many groups there are.  When every weight is equal (the
    spanner's uniform Γ_i) the dedup keeps each run's first edge and
    skips its pass over the weights: ties resolve by input order
    either way.  The level-synchronous weighted spanner uses this to
    do the inter-level contraction once per level instead of once per
    group.

    Per-block equivalence with :func:`quotient_graph` is exact: the
    vertex key ``group * span + label`` sorts blocks contiguously with
    labels ascending inside each block (the order a standalone
    ``np.unique`` over that group's labels produces), and the dedup's
    runs of ``(u, v)`` cannot interleave groups because ``u`` is
    block-contiguous — weight ties resolve by input order within a
    group exactly as in the standalone call.

    Parameters
    ----------
    edge_group:
        ``int64[m]`` — owning group of each edge, in ``[0, num_groups)``.
    edge_u, edge_v:
        Endpoint labels in ``[0, span)``; contraction classes are
        ``(group, label)`` pairs.  Self loops (``u == v``) are dropped.
    edge_w, edge_ids:
        As in :func:`quotient_graph`.
    span:
        Exclusive upper bound on endpoint labels (the parent graph's
        vertex count); used to build collision-free group-tagged keys.
    """
    edge_group = np.asarray(edge_group, dtype=np.int64)
    edge_u = np.asarray(edge_u, dtype=np.int64)
    edge_v = np.asarray(edge_v, dtype=np.int64)
    if edge_ids is None:
        edge_ids = np.arange(edge_u.shape[0], dtype=np.int64)
    else:
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
    span = np.int64(max(span, 1))

    key_u = edge_group * span + edge_u
    key_v = edge_group * span + edge_v
    used = presence_unique(int(num_groups * span), (key_u, key_v))
    if 16 * key_u.shape[0] >= num_groups * span:
        # keys are bounded by num_groups * span: a scatter table
        # replaces the two per-edge searchsorted relabel passes (this
        # runs once per weight level of the batched spanner)
        label = np.empty(int(num_groups * span), dtype=np.int64)
        label[used] = np.arange(used.shape[0], dtype=np.int64)
        qu = label[key_u]
        qv = label[key_v]
    else:
        # sparse rounds (e.g. the grouping=False ablation activating
        # every bucket at once on a big graph): stay O(m log m) instead
        # of allocating dense num_groups * span tables
        qu = np.searchsorted(used, key_u)
        qv = np.searchsorted(used, key_v)
    ptr = np.searchsorted(
        used, np.arange(num_groups + 1, dtype=np.int64) * span
    ).astype(np.int64)

    keep = qu != qv
    qu, qv = qu[keep], qv[keep]
    w, ids = np.asarray(edge_w, dtype=np.float64)[keep], edge_ids[keep]

    swap = qu > qv
    qu2 = np.where(swap, qv, qu)
    qv2 = np.where(swap, qu, qv)
    if qu2.size:
        uniform = bool((w == w[0]).all())
        keep = first_of_runs((qu2, qv2), prefer=() if uniform else (w,))
        qu2, qv2, w, ids = qu2[keep], qv2[keep], w[keep], ids[keep]

    return QuotientForestResult(
        graph=build_csr(int(used.shape[0]), qu2, qv2, w),
        ptr=ptr,
        rep_edge_ids=ids,
        vertex_reps=used % span,
    )
