"""Result containers for hopset constructions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.paths.bellman_ford import ArcSet, arcs_from_graph, combine_arcs


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
    foundation of :mod:`repro.dynamic`.
    """

    top_labels: np.ndarray  # int64[n]: level-0 cluster of each vertex
    top_seeds: np.ndarray  # int64[nclus]: child seed per level-0 cluster

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

    def arcs(self) -> ArcSet:
        """Directed arcs of ``E ∪ E'`` ready for h-hop Bellman–Ford.

        Memoized on the instance: query paths call this once per
        distance query, and re-concatenating six immutable arrays every
        time was pure waste.  The frozen-dataclass memo idiom matches
        :meth:`repro.graph.csr.CSRGraph._weight_stats`.
        """
        cached = self.__dict__.get("_arcs")
        if cached is None:
            cached = combine_arcs(
                arcs_from_graph(self.graph), self.eu, self.ev, self.ew
            )
            object.__setattr__(self, "_arcs", cached)
        return cached

    def union_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached CSR compilation ``(indptr, indices, weights)`` of
        :meth:`arcs` — the adjacency the frontier-based h-hop query
        kernel (:func:`repro.kernels.numpy_kernel.hop_sssp_batch`)
        gathers from in :func:`repro.hopsets.query.hopset_distance`.
        Built once per hopset and shared by every query and every
        hop-doubling step.  Exact serving
        (:class:`repro.serve.DistanceServer`) searches ``G`` and never
        compiles it.
        """
        cached = self.__dict__.get("_union_csr")
        if cached is None:
            from repro.paths.bellman_ford import arcset_to_csr

            cached = arcset_to_csr(self.arcs())
            object.__setattr__(self, "_union_csr", cached)
        return cached

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
