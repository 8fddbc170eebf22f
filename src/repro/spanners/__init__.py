"""Spanner constructions (Section 3 of the paper) and baselines.

* :func:`~repro.spanners.unweighted.unweighted_spanner` — Algorithm 2:
  one EST clustering with ``beta = log(n)/(2k)``, keep the cluster
  forest plus one edge from each boundary vertex to each adjacent
  cluster.  O(k) stretch, expected size O(n^(1+1/k)), O(m) work.
* :func:`~repro.spanners.weighted.weighted_spanner` — bucketing by
  powers of two + Algorithm 3 (``WellSeparatedSpanner``) on O(log k)
  well-separated groups with hierarchical contraction.
* :mod:`~repro.spanners.baselines` — Baswana–Sen (2k-1)-spanner and the
  greedy spanner, the comparison rows of Figure 1.
* :mod:`~repro.spanners.verify` — stretch verification (exact and
  sampled).
"""

from repro.spanners.result import SpannerResult
from repro.spanners.unweighted import unweighted_spanner
from repro.spanners.weighted import weighted_spanner, weight_buckets, well_separated_groups
from repro.spanners.baselines import baswana_sen_spanner, greedy_spanner
from repro.spanners.verify import edge_stretches, max_edge_stretch, verify_spanner
from repro.spanners.sparsify import SparsifyResult, spanner_sparsify

__all__ = [
    "SpannerResult",
    "unweighted_spanner",
    "weighted_spanner",
    "weight_buckets",
    "well_separated_groups",
    "baswana_sen_spanner",
    "greedy_spanner",
    "edge_stretches",
    "max_edge_stretch",
    "verify_spanner",
    "SparsifyResult",
    "spanner_sparsify",
]
