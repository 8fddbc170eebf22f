"""Low-diameter decomposition (LDD) interface over EST clustering.

The paper's framing (Section 1): a (beta, d)-low-diameter decomposition
partitions V into pieces of diameter at most d cutting at most a beta
fraction of edges in expectation; EST clustering achieves
d = O(beta^-1 log n) with the *local* probabilistic guarantees the
paper exploits.  This module exposes the classical LDD contract on top
of :func:`~repro.clustering.est.est_cluster` — the API downstream
algorithms (low-stretch trees, SDD solvers [BGK+14], sparsifiers
[Kou14]) program against — with certified-diameter validation and a
retry loop for the (probability < 1/n) diameter failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.clustering.diagnostics import cut_edge_mask
from repro.clustering.est import Clustering, est_cluster
from repro.errors import ParameterError, VerificationError
from repro.graph.csr import CSRGraph
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import SeedLike, resolve_rng


@dataclass(frozen=True)
class LowDiameterDecomposition:
    """A certified (beta, diameter) decomposition."""

    graph: CSRGraph
    clustering: Clustering
    beta: float
    diameter_bound: float
    cut_fraction: float
    attempts: int

    @property
    def num_pieces(self) -> int:
        return self.clustering.num_clusters

    def piece_of(self, v: int) -> int:
        return int(self.clustering.labels[v])

    def pieces(self) -> List[np.ndarray]:
        return self.clustering.members_list()

    def validate(self) -> None:
        """Re-check the certificate: every cluster tree radius within the
        diameter bound / 2, every piece internally connected."""
        radii = self.clustering.tree_radii()
        if radii.size and float(radii.max()) > self.diameter_bound / 2 + 1e-9:
            raise VerificationError(
                f"piece radius {radii.max()} exceeds certified {self.diameter_bound / 2}"
            )
        # connectivity: forest parents stay inside the cluster
        child = np.flatnonzero(self.clustering.parent >= 0)
        par = self.clustering.parent[child]
        if child.size and not (self.clustering.center[child] == self.clustering.center[par]).all():
            raise VerificationError("cluster forest crosses cluster boundaries")


def low_diameter_decomposition(
    g: CSRGraph,
    beta: float,
    seed: SeedLike = None,
    method: str = "auto",
    diameter_constant: float = 4.0,
    max_attempts: int = 5,
    tracker: Optional[PramTracker] = None,
) -> LowDiameterDecomposition:
    """Produce a decomposition with certified diameter O(beta^-1 log n).

    Retries (fresh shifts) in the rare event a cluster's certified tree
    radius exceeds ``diameter_constant * log(n) / (2 beta)`` — Lemma 2.1
    puts each attempt's failure probability below ``n^(1-k)`` for the
    corresponding constant, so ``max_attempts`` is a formality.

    Raises :class:`VerificationError` if no attempt satisfies the bound
    (practically unreachable; exists so callers can trust the
    certificate unconditionally).
    """
    if beta <= 0:
        raise ParameterError("beta must be positive")
    tracker = tracker or null_tracker()
    rng = resolve_rng(seed)
    diameter_bound = diameter_constant * math.log(max(g.n, 2)) / beta

    last_radius = math.inf
    for attempt in range(1, max_attempts + 1):
        c = est_cluster(g, beta, seed=rng, method=method, tracker=tracker)
        radii = c.tree_radii()
        worst = float(radii.max()) if radii.size else 0.0
        last_radius = worst
        if 2 * worst <= diameter_bound:
            mask = cut_edge_mask(g, c)
            return LowDiameterDecomposition(
                graph=g,
                clustering=c,
                beta=beta,
                diameter_bound=diameter_bound,
                cut_fraction=float(mask.mean()) if g.m else 0.0,
                attempts=attempt,
            )
    raise VerificationError(
        f"no attempt met the diameter bound {diameter_bound} "
        f"(last worst radius {last_radius}); beta may be inconsistent with n"
    )
