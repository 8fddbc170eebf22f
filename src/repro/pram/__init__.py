"""PRAM work/depth cost model.

The paper analyses its algorithms in the CRCW PRAM model: *work* is the
total number of operations, *depth* the longest chain of dependent
operations.  Real shared-memory PRAM is unavailable in CPython (GIL),
so we *measure the model* instead of timing a parallel machine:
every algorithm threads a :class:`~repro.pram.tracker.PramTracker`
through its parallel primitives, and the benchmarks report the ledger
(alongside wall-clock time of the vectorized kernels).

The tracker also implements the paper's ``log* n`` convention: one
concurrent-write round on the CRCW PRAM costs ``O(log* n)`` depth
[GMV91]; the per-round charge is configurable because "this factor
depends on the model of parallelism" (paper, Appendix A).
"""

from repro.pram.tracker import PramTracker, null_tracker, log_star
from repro.pram.primitives import charge_semisort
from repro.pram.report import fit_scaling_exponent
from repro.pram.speedup import processors_for_speedup

__all__ = [
    "PramTracker",
    "null_tracker",
    "log_star",
    "charge_semisort",
    "fit_scaling_exponent",
    "processors_for_speedup",
]
