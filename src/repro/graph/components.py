"""Connected components through scipy's compiled labelling.

The paper's parallel connectivity, the [SDB14] EST-contraction loop,
is :func:`repro.graph.parallel_connectivity.parallel_connectivity`;
these helpers are the plain component queries that the ctree driver,
the CLI and the benchmarks ask of a graph (and the reference that
connectivity is checked against).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.csr import CSRGraph


def connected_components(g: CSRGraph) -> Tuple[int, np.ndarray]:
    """Return ``(n_components, labels)`` with compact labels in [0, n_components)."""
    from scipy.sparse.csgraph import connected_components as cc

    ncc, labels = cc(g.to_scipy(), directed=False)
    return int(ncc), labels.astype(np.int64)


def is_connected(g: CSRGraph) -> bool:
    """True when the graph has exactly one connected component (or is empty)."""
    if g.n <= 1:
        return True
    ncc, _ = connected_components(g)
    return ncc == 1


def largest_component(g: CSRGraph) -> np.ndarray:
    """Vertex ids of the largest connected component."""
    _, labels = connected_components(g)
    counts = np.bincount(labels)
    return np.flatnonzero(labels == counts.argmax())
