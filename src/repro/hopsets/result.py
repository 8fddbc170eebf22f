"""Result containers for hopset constructions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.dedup import stable_argsort
from repro.paths.bellman_ford import CSRArrays


def union_csr_of(hopset: Any) -> CSRArrays:
    """CSR arrays ``(indptr, indices, weights)`` of ``G ∪ E'``, memoized.

    ``hopset`` is a frozen hopset (:class:`HopsetResult` or
    :class:`~repro.hopsets.limited.LimitedHopset`): both directions of
    every edge of ``hopset.graph`` and of every extra edge
    ``(eu[i], ev[i], ew[i])``, grouped by source with a stable radix
    order (:func:`~repro.graph.dedup.stable_argsort`).  Parallel and
    duplicate arcs are kept; the h-hop search takes the minimum over
    them.  Compiled once and stored on the hopset.
    """
    cached = hopset.__dict__.get("_union_csr")
    if cached is not None:
        return cached
    g, eu, ev, ew = hopset.graph, hopset.eu, hopset.ev, hopset.ew
    src = np.concatenate([g.edge_u, g.edge_v, eu, ev]).astype(np.int64, copy=False)
    dst = np.concatenate([g.edge_v, g.edge_u, ev, eu]).astype(np.int64, copy=False)
    w = np.concatenate([g.edge_w, g.edge_w, ew, ew]).astype(np.float64, copy=False)
    order = stable_argsort(src)
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=g.n), out=indptr[1:])
    cached = (indptr, dst[order], w[order])
    object.__setattr__(hopset, "_union_csr", cached)
    return cached


@dataclass(frozen=True)
class LevelStats:
    """Per-recursion-level construction statistics (diagnostics/benches)."""

    level: int
    subproblems: int
    vertices: int
    clusters: int
    large_clusters: int
    star_edges: int
    clique_edges: int
    beta: float


@dataclass(frozen=True)
class RepairStructure:
    """Level-0 decomposition retained for localized dynamic repair.

    The batched builder's level 0 only *splits*: it emits no edges, and
    every deeper subproblem — hence every hopset edge — lives inside a
    single level-0 cluster.  Recording the level-0 labels plus the child
    seed spawned for each cluster therefore suffices to rebuild any one
    block independently and bit-identically (blocks never interact), the
    foundation of :mod:`repro.dynamic`.  A rebuild must also race with
    the build's EST ``method``: on an unweighted graph ``"exact"`` and
    ``"round"`` (what ``"auto"`` picks) cluster differently.
    """

    top_labels: np.ndarray  # int64[n]: level-0 cluster of each vertex
    top_seeds: np.ndarray  # int64[nclus]: child seed per level-0 cluster
    method: str  # the build's EST method: "auto", "round" or "exact"

    @property
    def num_blocks(self) -> int:
        return int(self.top_seeds.shape[0])


@dataclass(frozen=True)
class HopsetResult:
    """A hopset: shortcut edges over the vertex set of ``graph``.

    Every edge ``(eu[i], ev[i])`` has weight ``ew[i]`` equal to the
    length of a concrete path of the (sub)graph it was built from —
    Definition 2.4's requirement — so hopset-augmented distances can
    never undershoot true distances.
    """

    graph: CSRGraph
    eu: np.ndarray
    ev: np.ndarray
    ew: np.ndarray
    kind: np.ndarray  # 0 = star edge, 1 = clique edge
    levels: List[LevelStats] = field(default_factory=list)
    meta: Dict[str, float] = field(default_factory=dict)
    structure: Optional[RepairStructure] = None

    @property
    def size(self) -> int:
        """Number of hopset edges."""
        return int(self.eu.shape[0])

    @property
    def star_count(self) -> int:
        return int((self.kind == 0).sum())

    @property
    def clique_count(self) -> int:
        return int((self.kind == 1).sum())

    def union_csr(self) -> CSRArrays:
        """Cached CSR arrays of ``E ∪ E'`` (:func:`union_csr_of`), the
        adjacency every h-hop query on this hopset searches
        (:func:`repro.hopsets.query.hopset_distance`).  Exact serving
        (:class:`repro.serve.DistanceServer`) searches ``G`` and never
        compiles it.
        """
        return union_csr_of(self)

    def verify_edge_weights(self, tol: float = 1e-9) -> None:
        """Check Definition 2.4 item 2: no hopset edge is lighter than
        the true distance between its endpoints (each must correspond to
        a real path).  O(#distinct sources) Dijkstras; test-scale only.
        """
        from scipy.sparse.csgraph import dijkstra as sp_dijkstra

        from repro.errors import VerificationError

        if self.size == 0:
            return
        gs = self.graph.to_scipy()
        srcs, inv = np.unique(self.eu, return_inverse=True)
        D = sp_dijkstra(gs, directed=False, indices=srcs)
        true_d = D[inv, self.ev]
        bad = self.ew < true_d - tol * np.maximum(1.0, true_d)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise VerificationError(
                f"hopset edge ({self.eu[i]},{self.ev[i]}) weight {self.ew[i]} "
                f"below true distance {true_d[i]}"
            )
