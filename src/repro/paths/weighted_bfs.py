"""Weighted parallel BFS (bucketed Dial search).

Section 5 of the paper runs "weighted parallel BFS" on graphs whose
edge weights have been rounded to small positive integers: the search
advances one *distance level* per round, so its PRAM depth is the
number of levels — which the Klein–Subramanian rounding (Lemma 5.2)
bounds by ``O(c k / ζ)``.

:func:`dial_sssp` is now a thin validation layer over the bucket
engine (:func:`repro.paths.engine.shortest_paths`) running in its
integer Dial mode (``delta = 1``): each distance level is one batched
relaxation round, exact for integer weights, and the tracker's round
count equals the number of levels swept.  The weighted EST race
(every vertex a source with an integer start offset) calls the engine
directly from :mod:`repro.clustering.est`; ``dial_sssp`` serves the
center searches of the depth-first test oracles and ``bench_scale.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.pram.tracker import PramTracker, null_tracker


def dial_sssp(
    g: CSRGraph,
    sources: np.ndarray,
    weights_int: Optional[np.ndarray] = None,
    offsets: Optional[np.ndarray] = None,
    tracker: Optional[PramTracker] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Multi-source SSSP on integer weights by bucketed level sweeps.

    Parameters
    ----------
    g:
        Graph; ``weights_int`` overrides its weights (per CSR slot).
    sources:
        Source vertex ids.
    offsets:
        Optional non-negative integer start offsets per source (the
        shifted-start race of EST clustering).

    Returns ``(dist, parent, owner, levels)``; ``levels`` is the number
    of distance levels swept, i.e. the PRAM depth in rounds.
    """
    from repro.paths.engine import shortest_paths

    tracker = tracker or null_tracker()
    sources = np.asarray(sources, dtype=np.int64)
    if weights_int is None:
        w = g.weights.astype(np.int64)
        if not np.array_equal(w.astype(np.float64), g.weights):
            raise ParameterError("dial_sssp requires integer weights; pass weights_int")
    else:
        w = np.asarray(weights_int, dtype=np.int64)
    if (w < 1).any():
        raise ParameterError("dial_sssp requires weights >= 1")
    if offsets is None:
        offsets = np.zeros(sources.shape[0], dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)

    res = shortest_paths(
        g,
        sources,
        offsets=offsets,
        weights=w,
        delta=1,
        tracker=tracker,
    )
    return res.dist, res.parent, res.owner, res.buckets
