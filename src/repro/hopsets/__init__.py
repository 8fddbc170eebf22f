"""Hopset constructions (Sections 4, 5, Appendices B, C) and baselines.

A ``(eps, h, m')``-hopset (Definition 2.4) is a set ``E'`` of at most
``m'`` weighted shortcut edges — each realizing the length of an actual
path of G — such that ``dist^h_{E ∪ E'}(u, v) <= (1+eps) dist(u, v)``
holds for any pair with probability >= 1/2.

* :mod:`~repro.hopsets.unweighted` — Algorithm 4: recursive EST
  clustering with a geometric ``beta`` schedule; large clusters get a
  star on their center plus a clique among centers.
* :mod:`~repro.hopsets.weighted` — Section 5: Klein–Subramanian
  rounding per distance scale ``d = n^(eta i)``.
* :mod:`~repro.hopsets.scales` — Appendix B reduction to polynomially
  bounded edge weights.
* :mod:`~repro.hopsets.limited` — Appendix C limited hopsets for
  arbitrary ``n^alpha`` depth.
* :mod:`~repro.hopsets.query` — (1+eps) distance queries by h-hop
  Bellman–Ford over ``E ∪ E'`` [KS97].
* :mod:`~repro.hopsets.baselines` — KS97 sampled-hub hopsets and a
  Cohen-style pairwise-cover hopset for the Figure 2 comparison.
"""

from repro.hopsets.params import HopsetParams
from repro.hopsets.result import HopsetResult, LevelStats, RepairStructure
from repro.hopsets.unweighted import build_hopset
from repro.hopsets.rounding import round_weights, RoundedGraph
from repro.hopsets.weighted import build_weighted_hopset, WeightedHopset, ScaleHopset
from repro.hopsets.query import (
    hopset_distance,
    exact_distance,
    suggested_hop_bound,
)
from repro.hopsets.scales import WeightScaleDecomposition, build_weight_scales
from repro.hopsets.limited import build_limited_hopset
from repro.hopsets.baselines import ks97_hopset, cohen_style_hopset
from repro.hopsets.paths import expand_to_graph_path, verify_graph_path

__all__ = [
    "HopsetParams",
    "HopsetResult",
    "LevelStats",
    "RepairStructure",
    "build_hopset",
    "round_weights",
    "RoundedGraph",
    "build_weighted_hopset",
    "WeightedHopset",
    "ScaleHopset",
    "hopset_distance",
    "exact_distance",
    "suggested_hop_bound",
    "WeightScaleDecomposition",
    "build_weight_scales",
    "build_limited_hopset",
    "ks97_hopset",
    "cohen_style_hopset",
    "expand_to_graph_path",
    "verify_graph_path",
]
