"""Exact shortest paths: engine front-end and scipy oracle.

Dijkstra is the sequential baseline of Theorem 1.2's comparison (the
thing the parallel pipeline must beat in depth while staying within
polylog factors in work).  Real-valued start offsets are what make
*exact* EST clustering possible (cluster of v = argmin_u dist(u,v) -
delta_u is a race with initial keys delta_max - delta_u).

:func:`dijkstra` keeps its historical signature but executes on the
bucket-parallel engine (:mod:`repro.paths.engine`) — callers get the
vectorized kernels transparently.  The pure-Python heap loop it
replaced is a test oracle (``tests/oracles/dijkstra.py``), and scipy's
compiled Dijkstra (:func:`dijkstra_scipy`) is the external check.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.parallel.pool import DEFAULT_WORKERS, WorkersArg


def dijkstra(
    g: CSRGraph,
    sources: np.ndarray | int,
    offsets: Optional[np.ndarray] = None,
    backend: Optional[str] = None,
    workers: WorkersArg = DEFAULT_WORKERS,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multi-source exact distances with optional real start offsets.

    Returns ``(dist, parent, owner)``: ``dist[v]`` is
    ``min_i offsets[i] + d(sources[i], v)``, ``owner[v]`` the arg-min
    source (ties broken toward the earlier entry in ``sources``), and
    ``parent`` the shortest-path-tree parent.  Runs on the bucket
    engine (``backend``/``workers`` as in
    :func:`repro.paths.engine.shortest_paths`; worker count never
    changes the result).
    """
    from repro.paths.engine import shortest_paths

    if offsets is not None:
        offsets = np.asarray(offsets, dtype=np.float64)
    res = shortest_paths(
        g,
        sources,
        offsets=offsets
        if offsets is not None
        else np.zeros(np.atleast_1d(np.asarray(sources)).shape[0], dtype=np.float64),
        backend=backend,
        workers=workers,
    )
    return res.dist, res.parent, res.owner


def dijkstra_scipy(g: CSRGraph, source: int) -> np.ndarray:
    """Single-source distances via scipy's C implementation (test oracle)."""
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    return sp_dijkstra(g.to_scipy(), directed=False, indices=source)


def st_distance(g: CSRGraph, s: int, t: int) -> float:
    """Exact s-t distance (scipy)."""
    return float(dijkstra_scipy(g, s)[t])


def all_pairs_distances(g: CSRGraph) -> np.ndarray:
    """Dense APSP matrix via scipy (small graphs / verification only)."""
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    return sp_dijkstra(g.to_scipy(), directed=False)
