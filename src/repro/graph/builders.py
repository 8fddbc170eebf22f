"""Graph construction from raw edge lists, and induced subgraphs.

:func:`from_edges` is the canonical entry point: it accepts any
``(u, v[, w])`` arrays, canonicalizes orientation, drops self loops,
merges parallel edges by *minimum* weight (the convention the paper
uses when contracting: "merging parallel edges by keeping the shortest
edge"), and validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph, build_csr
from repro.graph.dedup import first_of_runs
from repro.graph.validation import check_vertex_ids


def from_edges(
    n: int,
    edges: Iterable[Tuple[int, int]] | np.ndarray,
    weights: Optional[Sequence[float] | np.ndarray] = None,
) -> CSRGraph:
    """Build a :class:`CSRGraph` on ``n`` vertices from an edge list.

    Parameters
    ----------
    n:
        Number of vertices; vertex ids must lie in ``[0, n)``.
    edges:
        Iterable of ``(u, v)`` pairs or an ``(m, 2)`` integer array.
        Self loops are dropped; parallel edges are merged keeping the
        minimum weight.
    weights:
        Optional per-edge finite positive weights; defaults to all-ones
        (unweighted graph).
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if arr.size == 0:
        arr = np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphFormatError(f"edges must be (m, 2), got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise GraphFormatError("edge endpoints must be integers")
    u = arr[:, 0].astype(np.int64)
    v = arr[:, 1].astype(np.int64)
    if weights is None:
        w = np.ones(u.shape[0], dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape[0] != u.shape[0]:
            raise GraphFormatError("weights length must match edge count")
    if n < 0:
        raise GraphFormatError("n must be non-negative")
    if u.size:
        lo = min(u.min(), v.min())
        hi = max(u.max(), v.max())
        if lo < 0 or hi >= n:
            raise GraphFormatError(f"vertex id out of range [0, {n}): saw [{lo}, {hi}]")
        if not np.isfinite(w).all() or (w <= 0).any():
            raise GraphFormatError("edge weights must be strictly positive")

    # drop self loops
    keep = u != v
    u, v, w = u[keep], v[keep], w[keep]

    # canonical orientation u < v
    swap = u > v
    u2 = np.where(swap, v, u)
    v2 = np.where(swap, u, v)

    # merge parallel edges by minimum weight: keep the lightest
    # representative of each (u, v) run.
    if u2.size:
        keep = first_of_runs((u2, v2), prefer=(w,))
        u2, v2, w = u2[keep], v2[keep], w[keep]

    return build_csr(n, u2, v2, w)


def induced_subgraph(g: CSRGraph, vertices: np.ndarray) -> Tuple[CSRGraph, np.ndarray]:
    """Induced subgraph on ``vertices`` with compact relabeling.

    Returns ``(subgraph, vertex_map)`` where ``vertex_map[i]`` is the
    original id of subgraph vertex ``i``.  This is the one-group
    :func:`induced_subgraph_forest`, so it shares its cut and its input
    checks: an id outside ``[0, n)`` or a repeated id raises
    :class:`~repro.errors.GraphFormatError`.
    """
    forest = induced_subgraph_forest(g, [vertices])
    return forest.graph, forest.vmap


@dataclass(frozen=True)
class SubgraphForest:
    """A block-diagonal union of disjoint induced subgraphs.

    ``graph`` holds every group's induced subgraph side by side: group
    ``j`` occupies the contiguous vertex range ``[ptr[j], ptr[j+1])``
    and no edge crosses groups, so any frontier algorithm run on
    ``graph`` executes all groups' searches simultaneously without
    interaction — the substrate of the level-synchronous hopset
    builder.  ``vmap[i]`` is the parent-graph id of union vertex ``i``.
    """

    graph: CSRGraph
    vmap: np.ndarray
    ptr: np.ndarray

    @property
    def num_groups(self) -> int:
        return int(self.ptr.shape[0] - 1)


def induced_subgraph_forest(
    g: CSRGraph, vertex_groups: Sequence[np.ndarray]
) -> SubgraphForest:
    """Induced subgraphs of *disjoint* vertex groups, as one union.

    Builds one CSR graph containing the induced subgraph of every group
    as a separate block — one scatter into an ``n``-sized label table
    and one mask over the edge list, regardless of how many groups
    there are (the recursive hopset builder paid one full edge-list
    scan *per cluster* for the same information).  Each group's
    vertices keep their relative order inside its block, so a block
    equals the standalone induced subgraph of its vertex array (the
    single-graph cut ``tests/oracles/subgraph.py:induced_subgraph_reference``
    is the test reference).

    Raises :class:`~repro.errors.GraphFormatError` for a vertex id
    outside ``[0, n)`` or one listed twice (within a group or across
    groups).
    """
    if len(vertex_groups) == 0:
        return SubgraphForest(
            graph=build_csr(0, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64)),
            vmap=np.empty(0, np.int64),
            ptr=np.zeros(1, np.int64),
        )
    groups = [np.asarray(v) for v in vertex_groups]
    for v in groups:
        if v.ndim != 1:
            raise GraphFormatError(f"each vertex group must be 1-D, got shape {v.shape}")
    sizes = np.array([v.shape[0] for v in groups], dtype=np.int64)
    ptr = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    # one id check over every group (integral, in range)
    cat = check_vertex_ids(
        np.concatenate(groups) if ptr[-1] else np.empty(0, np.int64),
        g.n, "vertex", GraphFormatError,
    )

    pos = np.arange(cat.shape[0], dtype=np.int64)
    label = np.full(g.n, -1, dtype=np.int64)
    label[cat] = pos
    # a repeated vertex leaves a position whose label points elsewhere
    lost = label[cat] != pos
    if lost.any():
        bad = int(cat[np.argmax(lost)])
        raise GraphFormatError(
            f"vertex {bad} is listed twice; vertex groups must be pairwise disjoint"
        )
    lu = label[g.edge_u]
    lv = label[g.edge_v]
    keep = (lu >= 0) & (lv >= 0)
    ku, kv, kw = lu[keep], lv[keep], g.edge_w[keep]
    if len(groups) > 1:
        group_of = np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
        same = group_of[ku] == group_of[kv]
        ku, kv, kw = ku[same], kv[same], kw[same]
    return SubgraphForest(
        graph=build_csr(int(cat.shape[0]), ku, kv, kw),
        vmap=cat,
        ptr=ptr,
    )


def subgraph_by_edge_ids(g: CSRGraph, edge_ids: np.ndarray) -> CSRGraph:
    """Subgraph of ``g`` on the same vertex set keeping only ``edge_ids``."""
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    return build_csr(g.n, g.edge_u[edge_ids], g.edge_v[edge_ids], g.edge_w[edge_ids])
