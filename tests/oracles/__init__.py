"""Correctness oracles for the level-synchronous builders.

The product builders run the paper's parallel recursions level by
level.  The oracles here run the same recursions one subproblem at a
time, consuming the same spawned RNG streams, so for a fixed seed they
must emit the same edge sets.  :func:`check_level_invariants` checks a
hopset's per-level statistics against Section 4's schedule.  Tests and
the builder benches (``benchmarks/bench_hopset.py``,
``benchmarks/bench_spanner.py``) import them; nothing under ``src/``
may.
"""

from .hopsets import build_hopset_recursive
from .levels import check_level_invariants
from .spanners import weighted_spanner_recursive

__all__ = [
    "build_hopset_recursive",
    "check_level_invariants",
    "weighted_spanner_recursive",
]
