"""scipy's compiled Dijkstra: the external oracle for the engine.

Every exact weighted search in the package is a
:func:`repro.paths.engine.shortest_paths` call; Dijkstra is the
sequential baseline of Theorem 1.2's comparison (the thing the
parallel pipeline must beat in depth while staying within polylog
factors in work).  The pure-Python heap Dijkstra is a test oracle
(``tests/oracles/dijkstra.py``), and scipy's compiled Dijkstra
(:func:`dijkstra_scipy`) is the external check.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def dijkstra_scipy(g: CSRGraph, source: int) -> np.ndarray:
    """Single-source distances via scipy's C implementation (test oracle)."""
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    return sp_dijkstra(g.to_scipy(), directed=False, indices=source)
