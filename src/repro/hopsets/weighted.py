"""Weighted hopsets (Section 5): rounding + per-distance-scale builds.

For each distance scale ``d = (n^eta)^i`` covering the possible range
of shortest-path weights, the pipeline:

1. drops edges heavier than the band top ``c d`` (they cannot lie on a
   path of weight <= c d; this is the standard KS97 pruning),
2. rounds the remaining weights with granularity ``zeta d / n``
   (Lemma 5.2 with hop budget k = n), giving positive integers,
3. runs Algorithm 4 on the rounded graph.

A query evaluates every scale's h-hop Bellman–Ford distance in rounded
units, converts back through that scale's ``w_hat``, and returns the
minimum: rounding-up guarantees each scale's converted estimate is an
upper bound on the true distance, and the scale that brackets the true
distance certifies (1+eps)-accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.validation import check_vertex_ids
from repro.hopsets.params import HopsetParams
from repro.hopsets.result import HopsetResult
from repro.hopsets.rounding import RoundedGraph, round_weights
from repro.hopsets.unweighted import build_hopset
from repro.hopsets.query import suggested_hop_bound
from repro.paths.bellman_ford import hop_limited_distances
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import SeedLike, resolve_rng, spawn
from repro.parallel.pool import DEFAULT_WORKERS, WorkersArg


@dataclass(frozen=True)
class ScaleHopset:
    """Hopset for one distance band ``[d, c d]`` (in rounded units)."""

    d: float
    c: float
    rounded: RoundedGraph
    hopset: HopsetResult
    kept_edges: int


@dataclass(frozen=True)
class WeightedHopset:
    """Collection of per-scale hopsets answering (1+eps) queries."""

    graph: CSRGraph
    scales: List[ScaleHopset]
    eta: float
    zeta: float
    params: HopsetParams
    meta: Dict[str, float] = field(default_factory=dict)

    @property
    def total_hopset_edges(self) -> int:
        return sum(s.hopset.size for s in self.scales)

    def query(
        self,
        s: int,
        t: int,
        h: Optional[int] = None,
        tracker: Optional[PramTracker] = None,
    ) -> Tuple[float, int]:
        """(1+eps)-approximate s-t distance; returns (estimate, hops used).

        Scales run independently (in parallel on a PRAM — tracker depths
        are max-merged); the minimum converted estimate wins.
        """
        # s too: with no scales (an edgeless graph) no search checks it
        s, t = check_vertex_ids([s, t], self.graph.n, "vertex")
        tracker = tracker or null_tracker()
        best = math.inf
        best_hops = 0
        children = []
        for sc in self.scales:
            child = tracker.fork()
            budget = h if h is not None else _scale_hop_budget(sc)
            dist, hops, _ = hop_limited_distances(
                sc.hopset.union_csr(), np.asarray([s]), budget, child
            )
            est = sc.rounded.to_original_units(float(dist[t]))
            if est < best:
                best = est
                best_hops = int(hops[t])
            children.append(child)
        tracker.parallel_children(children)
        return best, best_hops

    def scale_for(self, d_estimate: float) -> ScaleHopset:
        """The scale whose band ``[d, c d]`` brackets ``d_estimate``
        (the largest anchor not exceeding the estimate)."""
        if not self.scales:
            raise ParameterError("hopset has no scales")
        chosen = self.scales[0]
        for sc in self.scales:
            if sc.d <= d_estimate:
                chosen = sc
        return chosen

    def query_with_estimate(
        self,
        s: int,
        t: int,
        d_estimate: float,
        h: Optional[int] = None,
        tracker: Optional[PramTracker] = None,
    ) -> Tuple[float, int]:
        """Query only the scale bracketing a known distance estimate.

        This is Section 5's actual query discipline ("one of the values
        tried satisfies d <= w(p) <= c d") — a single h-hop search
        instead of one per scale.  The estimate need only be within a
        factor ``c = n^eta`` below the truth; the returned value is
        still an upper bound on the true distance.
        """
        (t,) = check_vertex_ids([t], self.graph.n, "target")
        sc = self.scale_for(d_estimate)
        budget = h if h is not None else _scale_hop_budget(sc)
        dist, hops, _ = hop_limited_distances(
            sc.hopset.union_csr(), np.asarray([s]), budget, tracker
        )
        return sc.rounded.to_original_units(float(dist[t])), int(hops[t])


def _scale_hop_budget(sc: ScaleHopset) -> int:
    """Hop budget for one scale's query (Lemma 4.2 at the band top)."""
    d_rounded = sc.c * sc.d / sc.rounded.w_hat
    return suggested_hop_bound(sc.hopset, d_rounded)


def distance_scales(g: CSRGraph, eta: float) -> List[float]:
    """The geometric sequence of band anchors ``d`` covering all
    possible shortest-path weights ``[w_min, n * w_max]``."""
    if g.m == 0:
        return [1.0]
    w_min, w_max = g.min_weight, g.max_weight
    top = g.n * w_max
    c = max(float(g.n) ** eta, 2.0)
    out = []
    d = w_min
    while d <= top:
        out.append(d)
        d *= c
    return out


def build_weighted_hopset(
    g: CSRGraph,
    params: Optional[HopsetParams] = None,
    eta: float = 0.25,
    zeta: float = 0.25,
    seed: SeedLike = None,
    method: str = "exact",
    tracker: Optional[PramTracker] = None,
    backend: Optional[str] = None,
    rounding: bool = True,
    workers: WorkersArg = DEFAULT_WORKERS,
) -> WeightedHopset:
    """Build per-scale hopsets for a positively weighted graph.

    Parameters
    ----------
    eta:
        Scale granularity: bands grow by a factor ``n^eta``, so the
        number of scales is O(log(n U) / (eta log n)) — O(1/eta) for
        polynomially bounded weights.
    zeta:
        Rounding distortion budget per scale (Lemma 5.2).
    method:
        EST engine on rounded graphs; ``exact`` (bucket-engine race)
        by default because rounded integer ranges can be large.
    backend:
        Shortest-path kernel for the per-scale builds, as in
        :func:`repro.paths.engine.shortest_paths`.
    workers:
        Forwarded to every engine search inside the per-scale builds,
        as in :func:`repro.hopsets.unweighted.build_hopset`.
    rounding:
        ``True`` (default) applies the Klein–Subramanian rounding of
        Lemma 5.2 before each per-scale build — the paper's route to
        bounded weighted-BFS depth.  ``False`` skips the quantization
        detour entirely and runs Algorithm 4 on the pruned *real*
        weights: the engine's light/heavy delta-stepping kernels make
        float searches first-class, every per-scale distance is exact
        (zero rounding distortion, ``w_hat = 1``), and only the band
        pruning from step (1) remains.
    """
    if not (0 < eta < 1):
        raise ParameterError("eta must lie in (0, 1)")
    params = params or HopsetParams()
    tracker = tracker or null_tracker()
    rng = resolve_rng(seed)

    c = max(float(g.n) ** eta, 2.0)
    scales: List[ScaleHopset] = []
    anchors = distance_scales(g, eta)
    child_rngs = spawn(rng, max(len(anchors), 1))
    children = []
    for i, d in enumerate(anchors):
        child_tracker = tracker.fork()
        # (1) prune edges too heavy for the band
        keep = g.edge_w <= c * d
        pruned = from_edges(
            g.n, np.stack([g.edge_u[keep], g.edge_v[keep]], axis=1), g.edge_w[keep]
        )
        # (2) round (Lemma 5.2, hop budget n) — or, with rounding off,
        # keep the real weights and record an identity scale
        if pruned.m == 0:
            rounded = None
        elif rounding:
            rounded = round_weights(pruned, d=d, k=max(g.n, 2), zeta=zeta)
        else:
            rounded = RoundedGraph(
                graph=pruned, w_hat=1.0, d=float(d), k=max(g.n, 2), zeta=zeta
            )
        if rounded is None:
            continue
        # (3) Algorithm 4 on the rounded graph
        hs = build_hopset(
            rounded.graph,
            params=params,
            seed=child_rngs[i],
            method=method,
            tracker=child_tracker,
            backend=backend,
            workers=workers,
        )
        scales.append(
            ScaleHopset(d=float(d), c=c, rounded=rounded, hopset=hs, kept_edges=int(keep.sum()))
        )
        children.append(child_tracker)
    tracker.parallel_children(children)

    return WeightedHopset(
        graph=g,
        scales=scales,
        eta=eta,
        zeta=zeta,
        params=params,
        meta={"num_scales": float(len(scales)), "c": c, "rounding": float(rounding)},
    )
