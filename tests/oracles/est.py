"""Single-graph EST race: the reference for ``est_cluster``.

:func:`repro.clustering.est_cluster` and
:func:`repro.clustering.est_cluster_forest` run one race body
(``_race`` in ``repro/clustering/est.py``).  This module keeps the
single-graph body that ``est_cluster`` ran before the fold — its own
BFS, Dial and exact races — so the product can be compared with an
independent implementation: center, parent, parent edge, distance,
shifts, round count and tracker ledger must all be equal
(``tests/test_clustering.py``), and the depth-first hopset and spanner
oracles cluster with it.  Its BFS race is the lexsort body in
:mod:`.bfs`; it shares only the label passes with the product (the Dial
race's ``_canonical_dial_race`` and the exact race's
``repro.paths.trees.shortest_path_forest``).  The product reads each
forest edge's id off the arc that won its race; the reference finds it
again from the ``(parent, child)`` pair with :func:`edge_id_lookup`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.clustering.est import Clustering, _canonical_dial_race
from repro.clustering.shifts import sample_shifts
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.paths.engine import check_finite, shortest_paths
from repro.paths.trees import shortest_path_forest
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import SeedLike

from .bfs import bfs_with_start_times_reference


def edge_id_lookup(g: CSRGraph, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Vectorized (u, v) -> undirected edge id resolution, either
    orientation (:meth:`CSRGraph.edge_positions` on the ordered pairs).

    Requires every queried pair to exist in ``g``: raises KeyError
    naming the first missing one (on an edgeless graph, any pair).
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    ids, found = g.edge_positions(lo, hi)
    if not found.all():
        bad = int(np.flatnonzero(~found)[0])
        raise KeyError(f"edge ({lo[bad]}, {hi[bad]}) not present in graph")
    return ids


def est_cluster_reference(
    g: CSRGraph,
    beta: float,
    seed: SeedLike = None,
    method: str = "auto",
    tracker: Optional[PramTracker] = None,
    shifts: Optional[np.ndarray] = None,
) -> Clustering:
    """EST clustering of ``g``, with the same arguments and result as
    :func:`repro.clustering.est_cluster` (``auto`` is ``round`` on
    unweighted graphs and ``exact`` otherwise)."""
    if beta <= 0 or not np.isfinite(beta):
        raise ParameterError(f"beta must be a positive float, got {beta}")
    tracker = tracker or null_tracker()
    n = g.n
    if shifts is None:
        shifts = sample_shifts(n, beta, seed)
    else:
        shifts = np.asarray(shifts, dtype=np.float64)
        if shifts.shape[0] != n:
            raise ParameterError("shifts must have length n")
        check_finite("shifts", shifts)

    if method == "auto":
        method = "round" if g.is_unweighted else "exact"
    if method not in ("exact", "round"):
        raise ParameterError(f"unknown method {method!r}")

    delta_max = float(shifts.max()) if n else 0.0
    start_real = delta_max - shifts  # >= 0

    if method == "exact":
        with tracker.phase("est_exact"):
            res = shortest_paths(g, np.arange(n), offsets=start_real, tracker=tracker)
            dist = res.dist
            parent, owner = shortest_path_forest(g, dist, np.arange(n), start_real)
        dist_to_center = dist - start_real[owner]
        rounds = 0
    else:
        start_int = np.floor(start_real).astype(np.int64)
        if g.is_unweighted:
            with tracker.phase("est_round"):
                arrival, dist_hops, parent, owner, _ = bfs_with_start_times_reference(
                    g,
                    start_time=start_int,
                    source_ids=np.arange(n, dtype=np.int64),
                    priority=start_real,  # fractional tie-break
                    tracker=tracker,
                )
            dist_to_center = dist_hops.astype(np.float64)
            rounds = int(arrival.max()) + 1 if n else 0
        else:
            w_int = g.weights.astype(np.int64)
            if not np.array_equal(w_int.astype(np.float64), g.weights):
                raise ParameterError(
                    "round method on weighted graphs requires integer weights; "
                    "use method='exact' or round the weights first"
                )
            with tracker.phase("est_round"):
                res = shortest_paths(
                    g,
                    np.arange(n, dtype=np.int64),
                    offsets=start_int,
                    weights=w_int,
                    delta=1,
                    tracker=tracker,
                )
                sdist, levels = res.dist, res.buckets
                owner, parent, _ = _canonical_dial_race(
                    g, sdist, start_int, w_int,
                    sources=np.arange(n, dtype=np.int64),
                )
            dist_to_center = (sdist - start_int[owner]).astype(np.float64)
            rounds = levels

    child = np.flatnonzero(parent >= 0)
    parent_edge = np.full(n, -1, dtype=np.int64)
    parent_edge[child] = edge_id_lookup(g, child, parent[child])
    return Clustering(
        center=owner,
        parent=parent,
        parent_edge=parent_edge,
        dist_to_center=dist_to_center,
        shifts=shifts,
        beta=float(beta),
        rounds=rounds,
    )
