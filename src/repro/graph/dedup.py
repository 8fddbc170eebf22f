"""Shared vectorized dedup primitives (ROADMAP item 2b).

Two idioms recur in every builder that assembles or merges edge sets:

``first_of_runs``
    "Sort rows by a composite key, keep the first row of every run" —
    the lexsort dedup behind parallel-edge merging (keep the lightest
    representative of each ``(u, v)`` pair), boundary-edge selection
    (one edge per ``(vertex, neighbor cluster)``), claim resolution in
    the level-synchronous BFS, and union–find hooking.

``presence_unique``
    "Sorted distinct values of small-domain integer arrays" — when the
    values live in a known range ``[0, size)``, a presence bitmap plus
    one ``flatnonzero`` beats the hash/sort ``np.unique``; for sparse
    inputs the helper falls back to ``np.unique`` so callers never
    allocate a huge bitmap for a handful of ids.

Before this module the repo carried ~8 hand-rolled copies of each
(est/quotient/unionfind/bfs/weighted spanner/...), which is exactly the
idiom sprawl that made new backends expensive to validate.  Lint rule
``DUP001`` (:mod:`repro.lint.rules`) forbids re-inlining either pattern
outside this file.  The bucket kernels use neither: their claims and
frontier unions are resolved sort-free through per-state scratch
(:func:`repro.kernels.numpy_kernel.claim_min`).

Both helpers are pure array-in/array-out (no CSRGraph, no tracker) and
bit-exact with the idioms they replaced: ``first_of_runs`` returns the
surviving row indices in the same (sorted) order the masked-reorder
code produced, so every seeded edge set is unchanged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def first_of_runs(
    run_keys: Sequence[np.ndarray],
    prefer: Sequence[np.ndarray] = (),
) -> np.ndarray:
    """Indices of the best row of every distinct ``run_keys`` tuple.

    Rows are grouped by the composite key ``run_keys`` (first array most
    significant) and within a group ordered by ``prefer`` (again first
    array most significant), ties resolved by input position —
    ``np.lexsort`` is stable.  The returned ``int64`` indices select one
    winner per group, ordered by ascending group key, so
    ``arr[first_of_runs(...)]`` reproduces the classic

    .. code-block:: python

        order = np.lexsort((*reversed(prefer), *reversed(run_keys)))
        arr = arr[order]
        first = np.empty(arr.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(key_s[1:], key_s[:-1], out=first[1:])
        arr = arr[first]

    idiom bit for bit (e.g. merge parallel edges keeping the lightest:
    ``run_keys=(u, v)``, ``prefer=(w,)``).
    """
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


def presence_unique(
    size: int,
    parts: Sequence[np.ndarray],
    *,
    sparse_factor: int = 16,
) -> np.ndarray:
    """Sorted distinct values of the concatenation of ``parts``.

    Every value must lie in ``[0, size)``.  When the input is dense
    enough (``sparse_factor * total >= size``) the distinct set is
    computed with a presence bitmap and one ``flatnonzero`` — O(size)
    with tiny constants instead of ``np.unique``'s sort; sparse inputs
    take the ``np.unique`` path so the bitmap never dominates.  Either
    path returns the identical sorted ``int64`` array.
    ``sparse_factor=0`` forces the bitmap path unconditionally (for
    callers that know the input is dense, e.g. kept-edge-id unions).
    """
    total = 0
    for p in parts:
        total += int(p.shape[0])
    if total == 0:
        return np.empty(0, np.int64)
    if sparse_factor and sparse_factor * total < int(size):
        cat = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return np.unique(np.asarray(cat, dtype=np.int64))
    seen = np.zeros(int(size), dtype=bool)
    for p in parts:
        seen[p] = True
    return np.flatnonzero(seen)
