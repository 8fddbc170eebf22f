"""Exponential Start Time (EST) clustering and its diagnostics.

Implements Algorithm 1 of the paper (the [MPX13] routine): every vertex
``u`` draws an exponential shift ``delta_u ~ Exp(beta)`` and each vertex
``v`` joins the cluster of ``argmin_u dist(u, v) - delta_u``.  Two
execution modes are provided:

``exact``
    A Dijkstra race with real-valued start offsets — the mathematical
    definition, used wherever the probabilistic lemmas are validated.
``round``
    The round-synchronous implementation from the paper's Appendix A:
    integer parts of the shifts drive a level-synchronous BFS race
    (Dial buckets in the weighted case), whose round count *is* the
    PRAM depth.  The paper notes the integer quantization has
    "negligible effect" on the guarantees; tests confirm the two modes
    agree except on quantization ties.
"""

from repro.clustering.shifts import sample_shifts
from repro.clustering.est import Clustering, est_cluster, est_cluster_forest
from repro.clustering.ldd import LowDiameterDecomposition, low_diameter_decomposition
from repro.clustering.diagnostics import (
    cluster_radii,
    cut_edge_mask,
    cut_fraction,
    ball_cluster_count,
    adjacent_cluster_counts,
)

__all__ = [
    "sample_shifts",
    "Clustering",
    "est_cluster",
    "est_cluster_forest",
    "LowDiameterDecomposition",
    "low_diameter_decomposition",
    "cluster_radii",
    "cut_edge_mask",
    "cut_fraction",
    "ball_cluster_count",
    "adjacent_cluster_counts",
]
