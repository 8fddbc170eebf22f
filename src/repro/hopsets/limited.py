"""Appendix C: limited hopsets — arbitrary ``n^alpha`` depth.

Instead of shortcutting arbitrarily long paths at once, each *round*
approximates paths of at most ``n^(2 eta)`` hops by paths of ``n^eta``
hops (Lemma C.1): round the weights at every distance scale with
granularity ``d n^(-2 eta)``, run Algorithm 4 with

    delta = 2 / eta,   beta0 = 1 / d_rounded,   n_final = n^(eta/2),

and add the resulting shortcut edges *into the working graph*.  After
``1 / eta`` rounds every path has an ``n^(2 eta)``-hop equivalent
(Theorem C.2), so with ``eta = alpha / 2`` a final ``n^alpha``-hop
Bellman–Ford answers queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.dedup import first_of_runs
from repro.graph.validation import check_vertex_ids
from repro.hopsets.params import HopsetParams
from repro.hopsets.result import union_csr_of
from repro.hopsets.rounding import round_weights
from repro.hopsets.unweighted import build_hopset
from repro.paths.bellman_ford import CSRArrays, hop_limited_distances
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import SeedLike, resolve_rng, spawn


@dataclass(frozen=True)
class LimitedHopset:
    """Accumulated shortcut edges guaranteeing an ``n^alpha`` hop bound."""

    graph: CSRGraph
    eu: np.ndarray
    ev: np.ndarray
    ew: np.ndarray
    alpha: float
    eta: float
    rounds: int
    meta: Dict[str, float] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(self.eu.shape[0])

    @property
    def hop_budget(self) -> int:
        """``n^alpha`` (plus slack), the query depth Theorem C.2 promises."""
        return max(8, int(math.ceil(float(self.graph.n) ** self.alpha)) * 4)

    def union_csr(self) -> CSRArrays:
        """Cached CSR arrays of ``E ∪ E'`` (:func:`union_csr_of`)."""
        return union_csr_of(self)

    def query(
        self, s: int, t: int, tracker: Optional[PramTracker] = None
    ) -> Tuple[float, int]:
        """Approximate s-t distance with an ``n^alpha``-hop search."""
        (t,) = check_vertex_ids([t], self.graph.n, "target")
        dist, hops, _ = hop_limited_distances(
            self.union_csr(), np.asarray([s]), self.hop_budget, tracker
        )
        return float(dist[t]), int(hops[t])


def build_limited_hopset(
    g: CSRGraph,
    alpha: float = 0.5,
    epsilon: float = 0.5,
    zeta: float = 0.5,
    seed: SeedLike = None,
    tracker: Optional[PramTracker] = None,
) -> LimitedHopset:
    """Run the Theorem C.2 iteration on ``g``.

    ``alpha`` is the target depth exponent; ``eta = alpha / 2``; the
    outer loop runs ``ceil(1 / eta)`` rounds, each covering all distance
    scales ``d = (n^eta)^i``.  Practical sizes only (every round builds
    O(1/eta) hopsets); the benchmarks sweep small graphs.
    """
    if not (0 < alpha < 1):
        raise ParameterError("alpha must lie in (0, 1)")
    tracker = tracker or null_tracker()
    rng = resolve_rng(seed)
    n = g.n
    eta = alpha / 2.0
    outer_rounds = int(math.ceil(1.0 / eta))

    # Lemma C.1 parameters, expressed through HopsetParams' exponents:
    # n_final = n^(eta/2)  ->  gamma1 = eta/2
    # beta0   = 1/d_rounded = (n^(3 eta)/zeta)^(-1); we take gamma2 = min(3*eta, .9)
    gamma1 = eta / 2.0
    gamma2 = min(3.0 * eta, 0.9)
    if gamma2 <= gamma1:
        gamma2 = min(0.95, gamma1 * 2 + 0.05)
    eps_level = epsilon / max(math.log(max(n, 3)), 1.0)
    params = HopsetParams(
        epsilon=max(eps_level, 1e-3),
        delta=max(2.0 / eta, 1.01),
        gamma1=gamma1,
        gamma2=gamma2,
    )

    eu: List[np.ndarray] = []
    ev: List[np.ndarray] = []
    ew: List[np.ndarray] = []

    current = g
    c = max(float(n) ** eta, 2.0)
    for r in range(outer_rounds):
        w_max = current.max_weight
        top = n * w_max
        anchors = []
        d = current.min_weight
        while d <= top:
            anchors.append(d)
            d *= c * c  # bands cover [d, d * n^(2 eta)]
        child_rngs = spawn(rng, max(len(anchors), 1))
        children = []
        new_eu, new_ev, new_ew = [], [], []
        for i, d0 in enumerate(anchors):
            child_tracker = tracker.fork()
            keep = current.edge_w <= d0 * c * c
            if not keep.any():
                continue
            pruned = from_edges(
                current.n,
                np.stack([current.edge_u[keep], current.edge_v[keep]], axis=1),
                current.edge_w[keep],
            )
            # hop budget n^(2 eta): the paths this round must preserve
            k_hops = max(2, int(math.ceil(float(n) ** (2 * eta))))
            rounded = round_weights(pruned, d=d0, k=k_hops, zeta=zeta)
            hs = build_hopset(
                rounded.graph,
                params=params,
                seed=child_rngs[i],
                method="exact",
                tracker=child_tracker,
            )
            if hs.size:
                new_eu.append(hs.eu)
                new_ev.append(hs.ev)
                new_ew.append(hs.ew * rounded.w_hat)  # back to original units
            children.append(child_tracker)
        tracker.parallel_children(children)

        if new_eu:
            reu = np.concatenate(new_eu)
            rev = np.concatenate(new_ev)
            rew = np.concatenate(new_ew)
            eu.append(reu)
            ev.append(rev)
            ew.append(rew)
            # shortcuts join the working graph for the next round
            all_u = np.concatenate([current.edge_u, reu])
            all_v = np.concatenate([current.edge_v, rev])
            all_w = np.concatenate([current.edge_w, rew])
            current = from_edges(n, np.stack([all_u, all_v], axis=1), all_w)

    if eu:
        out_u = np.concatenate(eu)
        out_v = np.concatenate(ev)
        out_w = np.concatenate(ew)
        # dedupe (u, v) pairs keeping the lightest shortcut: rounds and
        # scales re-derive many of the same center pairs
        lo = np.minimum(out_u, out_v)
        hi = np.maximum(out_u, out_v)
        keep = first_of_runs((lo, hi), prefer=(out_w,))
        out_u, out_v, out_w = lo[keep], hi[keep], out_w[keep]
    else:
        out_u = np.empty(0, np.int64)
        out_v = np.empty(0, np.int64)
        out_w = np.empty(0, np.float64)
    return LimitedHopset(
        graph=g,
        eu=out_u,
        ev=out_v,
        ew=out_w,
        alpha=alpha,
        eta=eta,
        rounds=outer_rounds,
        meta={"outer_rounds": float(outer_rounds), "gamma1": gamma1, "gamma2": gamma2},
    )
