"""Brent's-law processor requirements from (work, depth) ledgers.

Section 2 of the paper argues that with ``p = n^delta`` processors (the
MapReduce regime) an algorithm fully parallelizes as long as its depth
is below ``n^(1-delta)``, so *work* is the quantity to optimize.  This
module turns a measured ledger into that argument quantitatively:
Brent's theorem bounds the p-processor time by ``work / p + depth``,
and :func:`processors_for_speedup` inverts that bound — how many
processors a construction needs before its depth term dominates.
"""

from __future__ import annotations

import math


def processors_for_speedup(work: int, depth: int, target_speedup: float) -> int:
    """Minimum p with ``work / (work/p + depth) >= target_speedup``.

    Returns 0 when the target exceeds the algorithm's parallelism
    ceiling ``work / depth`` (no finite p achieves it).
    """
    if target_speedup <= 1:
        return 1
    ceiling = work / max(depth, 1)
    if target_speedup >= ceiling:
        return 0
    # solve work / (work/p + depth) = s  =>  p = s*work / (work - s*depth)
    p = target_speedup * work / (work - target_speedup * depth)
    return max(1, math.ceil(p))
