"""Shared vectorized ordering and dedup primitives (ROADMAP item 2b).

Three idioms recur in every builder that assembles or merges edge sets:

``stable_argsort``
    "Order rows by bounded integer keys, ties by input position" — CSR
    arc assembly, the weighted spanner's level schedule, and the run
    order inside ``first_of_runs``.  Every key these callers order is a
    bounded integer (a vertex id, cluster label, weight level or
    group), so the order comes from O(m) least-significant-digit radix
    passes over 16-bit digits (numpy's ``argsort(kind="stable")`` is a
    radix sort on 16-bit keys) instead of a comparison sort.
    ``rows_by_value`` splits that order into one row list per key value
    (the edges of each weight bucket or group).

``first_of_runs``
    "Sort rows by a composite key, keep the first row of every run" —
    parallel-edge merging (keep the lightest representative of each
    ``(u, v)`` pair), boundary-edge selection (one edge per
    ``(vertex, neighbor cluster)``), claim resolution in the
    level-synchronous BFS, and union–find hooking.

``presence_unique``
    "Sorted distinct values of small-domain integer arrays" — when the
    values live in a known range ``[0, size)``, a presence bitmap plus
    one ``flatnonzero`` beats the hash/sort ``np.unique``; for sparse
    inputs the helper falls back to ``np.unique`` so callers never
    allocate a huge bitmap for a handful of ids.

Below :data:`RADIX_MIN_ROWS` rows ``stable_argsort`` and
``first_of_runs`` run numpy's comparison sorts instead: a radix call
costs a handful of whole-array passes, which loses on tiny inputs, and
the cluster-tree driver makes thousands of calls on tiny subgraphs.
Both paths return the same indices, so which one runs depends only on
the row count.

Before this module the repo carried ~8 hand-rolled copies of the dedup
idioms (est/quotient/unionfind/bfs/weighted spanner/...), which is
exactly the idiom sprawl that made new backends expensive to validate.
The ``DUP001`` check in ``tests/test_invariants.py`` forbids
re-inlining either pattern outside this file.  The bucket kernels use none of
these: their claims are one ``np.minimum.at`` min-write and their
frontier unions are deduplicated sort-free through per-state scratch
(:func:`repro.kernels.numpy_kernel._once_mask`).

The helpers are pure array-in/array-out (no CSRGraph, no tracker) and
bit-exact with the idioms they replaced: ``first_of_runs`` returns the
surviving row indices in the same (sorted) order the masked-reorder
code produced, so every seeded edge set is unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

#: row count from which ``stable_argsort`` and ``first_of_runs`` take
#: the radix path; below it numpy's comparison sorts are faster (the
#: crossover measured between 512 and 4,096 rows)
RADIX_MIN_ROWS = 1024

_DIGIT_BITS = 16


def _check_keys(what: str, keys: Sequence[np.ndarray]) -> int:
    """Common row count of the integer key arrays ``keys``."""
    if not keys:
        raise ValueError(f"{what} needs at least one key array")
    m = keys[0].shape[0]
    for key in keys:
        if key.shape != (m,):
            raise ValueError(f"{what} keys must be 1-D arrays of one length")
        if key.dtype.kind not in "iu":
            raise TypeError(f"{what} keys must be integer arrays, got {key.dtype}")
    return m


def _radix_passes(key: np.ndarray, order: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Refine ``order`` (``None`` = input order) stably by ``key``.

    ``key`` is already permuted by ``order``.  It is shifted by its
    minimum, so negative keys work, and the offsets are taken modulo
    ``2^64``, so they stay exact whatever the key's range.
    """
    lo = int(key.min())
    span = int(key.max()) - lo
    if span == 0:
        return order
    if span >> _DIGIT_BITS == 0:
        o = np.argsort((key - lo if lo else key).astype(np.uint16), kind="stable")
        return o if order is None else order[o]
    off = key.astype(np.uint64)
    off -= np.uint64(lo % (1 << 64))
    passes = -(-span.bit_length() // _DIGIT_BITS)
    for p in range(passes):
        o = np.argsort(off.astype(np.uint16), kind="stable")
        order = o if order is None else order[o]
        if p + 1 < passes:
            off = off[o]
            off >>= np.uint64(_DIGIT_BITS)
    return order


def stable_argsort(*keys: np.ndarray) -> np.ndarray:
    """Indices ordering rows by the integer ``keys``, first key most
    significant, equal rows in input order.

    Index for index equal to ``np.lexsort(keys[::-1])``, and for one key
    to ``np.argsort(key, kind="stable")``.  From
    :data:`RADIX_MIN_ROWS` rows on, each key costs
    ``ceil(log2(max - min + 1) / 16)`` O(m) radix passes, least
    significant key first; keys may be negative and of any integer
    dtype.  Non-integer keys raise ``TypeError``.
    """
    m = _check_keys("stable_argsort", keys)
    if m < RADIX_MIN_ROWS:
        if len(keys) == 1:
            return np.argsort(keys[0], kind="stable")
        return np.lexsort(keys[::-1])
    order: Optional[np.ndarray] = None
    for key in reversed(keys):
        order = _radix_passes(key if order is None else key[order], order)
    return np.arange(m, dtype=np.int64) if order is None else order


def _run_heads(sorted_keys: Sequence[np.ndarray]) -> np.ndarray:
    """``bool`` mask of the rows that start a run of ``sorted_keys``."""
    k0 = sorted_keys[0]
    first = np.empty(k0.shape[0], dtype=bool)
    first[0] = True
    np.not_equal(k0[1:], k0[:-1], out=first[1:])
    for ks in sorted_keys[1:]:
        first[1:] |= ks[1:] != ks[:-1]
    return first


def first_of_runs(
    run_keys: Sequence[np.ndarray],
    prefer: Sequence[np.ndarray] = (),
) -> np.ndarray:
    """Indices of the best row of every distinct ``run_keys`` tuple.

    Rows are grouped by the composite integer key ``run_keys`` (first
    array most significant) and within a group ordered by ``prefer``
    (again first array most significant), ties resolved by input
    position.  The returned ``int64`` indices select one winner per
    group, ordered by ascending group key, so
    ``arr[first_of_runs(...)]`` reproduces the classic

    .. code-block:: python

        order = np.lexsort((*reversed(prefer), *reversed(run_keys)))
        arr = arr[order]
        first = np.empty(arr.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(key_s[1:], key_s[:-1], out=first[1:])
        arr = arr[first]

    idiom bit for bit (e.g. merge parallel edges keeping the lightest:
    ``run_keys=(u, v)``, ``prefer=(w,)``).  ``prefer`` arrays may be
    integer or float.  Float ones compare as ``np.lexsort`` compares
    them: ``-0.0`` ties ``+0.0``, and NaN ranks after every number and
    ties other NaNs, so a row with NaN wins only a run that is NaN
    throughout.
    """
    m = _check_keys("first_of_runs", run_keys)
    if m == 0:
        return np.empty(0, np.int64)
    if m < RADIX_MIN_ROWS:
        order = np.lexsort(tuple(reversed(tuple(prefer))) + tuple(reversed(tuple(run_keys))))
        return order[_run_heads([key[order] for key in run_keys])]
    for p in prefer:
        if p.shape != (m,):
            raise ValueError("first_of_runs prefer arrays must match the run keys")
    order = stable_argsort(*run_keys)
    heads = _run_heads([key[order] for key in run_keys])
    if not prefer or heads.all():
        return order[heads]
    # every run keeps the rows tying its minimum of each prefer array in
    # turn; the radix order is stable, so a run's first survivor is its
    # earliest input row, the one np.lexsort would put first
    rows, run = order, np.cumsum(heads)
    run -= 1
    for p in prefer:
        vals = p[rows]
        floating = vals.dtype.kind == "f"
        best = (np.fmin if floating else np.minimum).reduceat(vals, np.flatnonzero(heads))
        keep = vals == best[run]
        if floating and np.isnan(best).any():
            keep |= np.isnan(vals) & np.isnan(best)[run]
        del vals
        rows, run = rows[keep], run[keep]
        heads = _run_heads((run,))
    return rows[heads]


def rows_by_value(key: np.ndarray, size: int) -> List[np.ndarray]:
    """Ascending row indices holding each value ``0 .. size - 1`` of ``key``.

    One :func:`stable_argsort` split at the value counts — grouping
    edges by weight bucket or group in one pass instead of one
    ``flatnonzero(key == v)`` scan per value.  Values absent from
    ``key`` get empty arrays; every value must lie in ``[0, size)``.
    """
    order = stable_argsort(key)
    ends = np.cumsum(np.bincount(key, minlength=size)).tolist()
    return [order[a:b] for a, b in zip([0] + ends[:-1], ends)]


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
