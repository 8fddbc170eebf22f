"""Cost charges for standard PRAM building blocks.

These helpers encode the textbook work/depth costs of the primitives
the paper's algorithms consume, so algorithm code reads like the paper
("semisort the boundary arcs by adjacent cluster") while the ledger
stays honest:

============  ==============  =================
primitive     work            depth (rounds)
============  ==============  =================
semisort      O(n) exp.       O(log n)
============  ==============  =================

Each charge routine *also* returns nothing and has no effect on data —
callers perform the actual computation with vectorized numpy and call
these purely for the ledger.
"""

from __future__ import annotations

import math

from repro.pram.tracker import PramTracker


def _log2(n: int) -> int:
    return max(1, math.ceil(math.log2(max(n, 2))))


def charge_semisort(tracker: PramTracker, n: int) -> None:
    """Semisort (group equal keys): O(n) expected work, O(log n) rounds."""
    tracker.parallel_round(work=4 * n, rounds=_log2(n))
