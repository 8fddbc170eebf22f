"""Single-graph induced-subgraph cut: the reference for ``induced_subgraph``.

:func:`repro.graph.induced_subgraph` is the one-group
:func:`repro.graph.induced_subgraph_forest`.  This module keeps the
cut it ran before the fold — one label scatter and one mask over the
edge list, with no input checks — so tests can compare the product's
CSR arrays and vertex map with an independent implementation, and
the depth-first hopset oracle cuts its subproblems with it.  Callers
must pass distinct ids in ``[0, n)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.csr import CSRGraph, build_csr


def induced_subgraph_reference(
    g: CSRGraph, vertices: np.ndarray
) -> Tuple[CSRGraph, np.ndarray]:
    """``(subgraph, vertex_map)`` of ``g`` on ``vertices``, relabeled
    so subgraph vertex ``i`` is ``vertices[i]``."""
    vertices = np.asarray(vertices, dtype=np.int64)
    label = np.full(g.n, -1, dtype=np.int64)
    label[vertices] = np.arange(vertices.shape[0], dtype=np.int64)
    lu = label[g.edge_u]
    lv = label[g.edge_v]
    keep = (lu >= 0) & (lv >= 0)
    sub = build_csr(vertices.shape[0], lu[keep], lv[keep], g.edge_w[keep])
    return sub, vertices
