"""Array-backed union–find with vectorized bulk operations.

:class:`UnionFind` merges components edge by edge (the low-stretch
tree, the hopset scale ladder, ``contracted_quotient``).  The weighted
spanner hooks cluster roots itself in a bare parent array and resolves
endpoints with :func:`find_roots`, the vectorized sweep of ``find_many``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.dedup import first_of_runs, presence_unique


class UnionFind:
    """Disjoint-set forest over ``n`` elements with union by size."""

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.n_components = n

    def find(self, x: int) -> int:
        """Root of ``x`` with path halving (scalar)."""
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return int(x)

    def find_many(self, xs: np.ndarray) -> np.ndarray:
        """Roots of every element of ``xs`` (:func:`find_roots`)."""
        return find_roots(self.parent, xs)

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; return True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return True

    def union_edges(self, us: np.ndarray, vs: np.ndarray) -> int:
        """Union every pair ``(us[i], vs[i])``; return number of merges.

        Fully vectorized hooking: each pass resolves roots, canonically
        orients every still-live pair as ``(lo, hi)``, and hooks each
        distinct ``hi`` root onto its smallest partner (``lo < hi``
        strictly, so a pass can never create a cycle; chains collapse
        through the next pass's path compression).  Every pass merges
        each live ``hi`` root exactly once, so the pass count is
        logarithmic in the contracted component count.
        Root sizes are rebuilt exactly for every touched component from
        the pre-call root sizes, with one ``bincount`` over the root ids.
        """
        a = self.find_many(us)
        b = self.find_many(vs)
        if a.size == 0:
            return 0
        r0 = presence_unique(int(self.parent.shape[0]), (a, b), sparse_factor=8)
        pre_sizes = self.size[r0].copy()
        p = self.parent
        merged = 0
        while True:
            live = a != b
            if not live.any():
                break
            lo = np.minimum(a[live], b[live])
            hi = np.maximum(a[live], b[live])
            hook = first_of_runs((hi,), prefer=(lo,))
            p[hi[hook]] = lo[hook]
            merged += int(hook.shape[0])
            a = self.find_many(a)
            b = self.find_many(b)
        if merged:
            # every component's root is one of the pre-call roots r0
            roots = self.find_many(r0)
            totals = np.bincount(roots, weights=pre_sizes)
            top = r0[roots == r0]
            self.size[top] = totals[top].astype(np.int64)
            self.n_components -= merged
        return merged

    def component_labels(self) -> np.ndarray:
        """Compact 0-based component label for every element."""
        roots = self.find_many(np.arange(self.parent.shape[0]))
        _, labels = np.unique(roots, return_inverse=True)
        return labels


def find_roots(parent: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Roots of every element of ``xs`` in the forest ``parent``.

    Follows two parent hops per pass until fixpoint, so the number of
    passes is half the tallest queried chain.  After the sweep, every
    queried element points directly at its root (``parent`` is
    compressed in place).
    """
    xs = np.asarray(xs, dtype=np.int64)
    roots = xs.copy()
    while True:
        nxt = parent[roots]
        if np.array_equal(nxt, roots):
            break
        roots = parent[nxt]  # two hops per pass (path halving flavor)
    parent[xs] = roots
    return roots
