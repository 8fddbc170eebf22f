"""The comparison-sort dedup: the oracle for ``first_of_runs``.

:func:`repro.graph.dedup.first_of_runs` radix-orders rows by their run
keys and picks each run's winner with ``minimum.reduceat`` passes over
the ``prefer`` arrays.  This is the body it replaced: one
``np.lexsort`` over run keys and ``prefer``, keeping the first row of
every run.  Both must return the same indices on every input
(``tests/test_graph_dedup.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def first_of_runs_lexsort(
    run_keys: Sequence[np.ndarray],
    prefer: Sequence[np.ndarray] = (),
) -> np.ndarray:
    """Indices of the best row of every distinct ``run_keys`` tuple, by lexsort."""
    if not run_keys:
        raise ValueError("first_of_runs needs at least one run key array")
    m = run_keys[0].shape[0]
    if m == 0:
        return np.empty(0, np.int64)
    order = np.lexsort(tuple(reversed(tuple(prefer))) + tuple(reversed(tuple(run_keys))))
    first = np.empty(m, dtype=bool)
    first[0] = True
    k0 = run_keys[0][order]
    np.not_equal(k0[1:], k0[:-1], out=first[1:])
    for key in run_keys[1:]:
        ks = key[order]
        first[1:] |= ks[1:] != ks[:-1]
    return order[first]
