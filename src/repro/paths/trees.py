"""Parent-array tree utilities: the forest a search's distances
certify, path extraction, depth, verification."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ParameterError, VerificationError
from repro.graph.csr import CSRGraph
from repro.graph.validation import check_vertex_ids
from repro.kernels.numpy_kernel import INT_INF


def shortest_path_forest(
    g: CSRGraph,
    dist: np.ndarray,
    sources: np.ndarray | int,
    offsets: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(parent, owner)`` of the shortest-path forest ``dist`` certifies.

    ``dist`` holds a search's distances from ``sources`` started at
    ``offsets`` (all zero when ``None``) over ``g``'s arcs, weighted by
    ``weights`` when given: ``shortest_paths(g, sources, offsets,
    weights=weights).dist``.  One pass over the arcs finds the tight
    ones: ``dist[u] + w(u, v) == dist[v]`` with ``dist[u] < dist[v]``.
    Roots are the sources that sit at their own offset; every other
    reached vertex's parent is its smallest tight predecessor, and its
    owner the root its parent chain ends at, found by pointer doubling
    (``log2`` of the deepest chain passes).  Unreached vertices get
    ``-1`` in both.  On ``int64`` rows (``INT_INF`` when unreached)
    tightness is checked only where the tail is reached, so the sum
    never wraps.  Charges no tracker: the labels are read off a
    finished search.

    Parent chains strictly decrease ``dist``, so they cannot cycle.  An
    arc that adds nothing to ``dist`` (weight 0, or a float weight
    below half the spacing of ``dist[u]``) is never tight, so a reached
    vertex entered only by such arcs has no tight predecessor and
    raises :class:`ParameterError`, as do ``dist``, ``sources`` and
    ``offsets`` of different searches.
    """
    parent, owner, _ = tight_forest(g, dist, sources, offsets, weights)
    return parent, owner


def tight_forest(
    g: CSRGraph,
    dist: np.ndarray,
    sources: np.ndarray | int,
    offsets: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`shortest_path_forest` plus each vertex's parent edge id:
    ``(parent, owner, parent_edge)``, ``parent_edge`` ``-1`` at roots
    and unreached vertices.

    Each vertex takes its smallest tight CSR slot.  Slots are grouped
    by ascending tail and a :class:`CSRGraph` holds one arc per ordered
    pair, so that slot is the arc from the smallest tight predecessor.
    """
    n = g.n
    sources = check_vertex_ids(sources, n)
    offsets = np.zeros(sources.shape[0]) if offsets is None else np.asarray(offsets)
    w = g.weights if weights is None else np.asarray(weights)
    tails = g.arc_sources()
    src, dst = tails, g.indices
    arcs: Optional[np.ndarray] = None  # the reached tails' slots on int64 rows
    if dist.dtype.kind in "iu":
        reached = dist != INT_INF
        arcs = np.flatnonzero(reached[src])
        src, dst, w = src[arcs], dst[arcs], w[arcs]
    else:
        reached = dist != np.inf
    du, dv = dist[src], dist[dst]
    tight = np.flatnonzero((du + w == dv) & (du < dv))
    slot = np.full(n, g.num_arcs, dtype=np.int64)  # num_arcs: no tight arc
    np.minimum.at(slot, dst[tight], tight if arcs is None else arcs[tight])
    has = np.flatnonzero(slot < g.num_arcs)
    parent = np.full(n, n, dtype=np.int64)  # n: no tight predecessor
    parent[has] = tails[slot[has]]
    parent_edge = np.full(n, -1, dtype=np.int64)
    parent_edge[has] = g.edge_ids[slot[has]]
    roots = sources[dist[sources] == offsets]
    parent[roots] = roots
    parent_edge[roots] = -1
    orphan = np.flatnonzero(reached & (parent == n))
    if orphan.shape[0]:
        raise ParameterError(
            f"vertex {orphan[0]} is reached but has no tight predecessor: "
            "dist is not from a search from these sources and offsets, or "
            "only arcs that add nothing to dist reach the vertex"
        )
    unreached = np.flatnonzero(~reached)
    owner = parent.copy()
    owner[unreached] = unreached  # unreached vertices hold still
    while True:
        up = owner[owner]
        if np.array_equal(up, owner):
            break
        owner = up
    owner[unreached] = -1
    parent[roots] = -1
    parent[unreached] = -1
    return parent, owner, parent_edge


def extract_path(parent: np.ndarray, t: int) -> List[int]:
    """Walk parents from ``t`` to its root; returns [root, ..., t].

    Raises :class:`VerificationError` on a cycle (walk longer than n).
    """
    path = [int(t)]
    v = int(t)
    limit = parent.shape[0] + 1
    while parent[v] != -1:
        v = int(parent[v])
        path.append(v)
        if len(path) > limit:
            raise VerificationError("parent array contains a cycle")
    path.reverse()
    return path


def tree_depths(parent: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Depth (hop count, or weighted if ``weights[v]`` = w(parent edge)) of each vertex.

    Roots (parent -1) have depth 0; implemented with pointer-jumping
    style passes so deep paths don't hit the recursion limit.
    """
    n = parent.shape[0]
    step = np.where(parent >= 0, (weights if weights is not None else np.ones(n)), 0.0)
    # vectorized ladder climb: every pass each active vertex absorbs its
    # current ancestor's step and moves one level up.  O(n * height)
    # work but each pass is a C-speed sweep.
    depth = np.zeros(n, dtype=np.float64)
    cur = parent.copy()
    contrib = step.copy()
    while True:
        active = cur >= 0
        if not active.any():
            break
        depth[active] += contrib[active]
        safe = np.where(active, cur, 0)
        contrib = np.where(active, step[safe], 0.0)
        cur = np.where(active, parent[safe], -1)
    return depth


def verify_sssp_tree(
    g: CSRGraph, dist: np.ndarray, parent: np.ndarray, tol: float = 1e-9
) -> None:
    """Check that (dist, parent) is a valid shortest-path forest of ``g``.

    Conditions: every non-root vertex's parent is a neighbor with
    ``dist[v] == dist[p] + w(p, v)``; every edge satisfies the triangle
    inequality ``|dist[u] - dist[v]| <= w(u, v)`` (within reachable
    components).  Raises VerificationError otherwise.
    """
    n = g.n
    for v in range(n):
        p = int(parent[v])
        if p == -1:
            continue
        nbrs = g.neighbors(v)
        ws = g.neighbor_weights(v)
        hit = np.flatnonzero(nbrs == p)
        if hit.size == 0:
            raise VerificationError(f"parent {p} of {v} is not a neighbor")
        w_pv = float(ws[hit].min())
        if abs(dist[v] - (dist[p] + w_pv)) > tol * max(1.0, abs(dist[v])):
            raise VerificationError(
                f"tree edge ({p},{v}) inconsistent: {dist[v]} != {dist[p]} + {w_pv}"
            )
    du = dist[g.edge_u]
    dv = dist[g.edge_v]
    both = np.isfinite(du) & np.isfinite(dv)
    slack = np.abs(du[both] - dv[both]) - g.edge_w[both]
    if (slack > tol).any():
        k = int(np.argmax(slack))
        raise VerificationError(f"triangle inequality violated by edge index {k}")
