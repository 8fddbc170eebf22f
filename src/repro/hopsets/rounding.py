"""Klein–Subramanian edge-weight rounding (Lemma 5.2).

For a target distance band ``[d, c d]`` and a hop budget ``k``, round
every weight to a multiple of the granularity ``w_hat = zeta d / k``:

    w_tilde(e) = ceil(w(e) / w_hat)          (positive integers)

Any path ``p`` with at most ``k`` hops and ``d <= w(p) <= c d`` then has

    w_tilde(p) <= ceil(c k / zeta)  (search needs only this many levels)
    w_hat * w_tilde(p) <= (1 + zeta) w(p)    (distortion bound)

and every path satisfies ``w_hat * w_tilde(p) >= w(p)`` (rounding up
never undershoots), so estimates from the rounded graph are always
valid upper bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class RoundedGraph:
    """A graph with integer weights ``w_tilde`` plus the scale to undo it."""

    graph: CSRGraph  # integer weights w_tilde (stored as floats with integral values)
    w_hat: float
    d: float
    k: int
    zeta: float

    def to_original_units(self, rounded_dist: float | np.ndarray) -> float | np.ndarray:
        """Convert a rounded-graph distance back to original weight units."""
        return self.w_hat * rounded_dist


def round_weights(g: CSRGraph, d: float, k: int, zeta: float) -> RoundedGraph:
    """Round ``g``'s weights for the distance band anchored at ``d``.

    Parameters
    ----------
    d:
        Lower end of the target distance band.
    k:
        Hop budget of the paths that must survive rounding.
    zeta:
        Distortion budget (0 < zeta < 1); granularity is ``zeta d / k``.
    """
    if d <= 0:
        raise ParameterError("d must be positive")
    if k < 1:
        raise ParameterError("k must be >= 1")
    if not (0 < zeta < 1):
        raise ParameterError("zeta must lie in (0, 1)")
    w_hat = zeta * d / k
    w_tilde = np.ceil(g.edge_w / w_hat)
    rounded = from_edges(g.n, g.edges_array(), w_tilde)
    return RoundedGraph(graph=rounded, w_hat=w_hat, d=d, k=k, zeta=zeta)
