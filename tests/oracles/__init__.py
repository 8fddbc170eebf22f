"""Correctness oracles for the level-synchronous builders and the h-hop query.

The product builders run the paper's parallel recursions level by
level.  The oracles here run the same recursions one subproblem at a
time, consuming the same spawned RNG streams, so for a fixed seed they
must emit the same edge sets.  :func:`check_level_invariants` checks a
hopset's per-level statistics against Section 4's schedule, and
:func:`dense_hop_distances` is the dense synchronous Bellman–Ford the
frontier h-hop kernel must match label for label.  Tests and the
benches (``benchmarks/bench_hopset.py``, ``benchmarks/bench_spanner.py``,
``benchmarks/bench_serve.py``) import them; nothing under ``src/``
may.
"""

from .bellman_ford import ArcSet, arcs_from_graph, combine_arcs, dense_hop_distances
from .hopsets import build_hopset_recursive
from .levels import check_level_invariants
from .spanners import weighted_spanner_recursive

__all__ = [
    "ArcSet",
    "arcs_from_graph",
    "build_hopset_recursive",
    "check_level_invariants",
    "combine_arcs",
    "dense_hop_distances",
    "weighted_spanner_recursive",
]
