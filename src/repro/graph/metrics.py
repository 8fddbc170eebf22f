"""Cut, volume and conductance of vertex sets.

:func:`conductance` — cut size over the lighter side's volume — defines
the cluster-tree ``conductance:PHI`` requirement
(:mod:`repro.ctree.requirements`).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def volume(g: CSRGraph, vertices: np.ndarray) -> int:
    """Sum of degrees of ``vertices`` (the conductance denominator)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return 0
    return int(np.asarray(g.degree())[vertices].sum())


def cut_size(g: CSRGraph, vertices: np.ndarray) -> int:
    """Number of edges with exactly one endpoint in ``vertices``."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if g.m == 0 or vertices.size == 0:
        return 0
    inside = np.zeros(g.n, dtype=bool)
    inside[vertices] = True
    return int((inside[g.edge_u] != inside[g.edge_v]).sum())


def conductance(g: CSRGraph, vertices: np.ndarray) -> float:
    """Conductance of the vertex set ``S``: ``cut(S) / min(vol(S), vol(V-S))``.

    The standard cluster-quality score: low conductance means the set is
    well separated from the rest of the graph.  Degenerate sets — empty,
    all of ``V``, or a side with zero volume — score ``0.0`` (there is
    nothing to cut), so callers can treat the value as "fraction of the
    lighter side's volume that leaks out" unconditionally.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    vol_s = volume(g, vertices)
    vol_rest = 2 * g.m - vol_s
    denom = min(vol_s, vol_rest)
    if denom == 0:
        return 0.0
    return cut_size(g, vertices) / denom
