"""The four workloads of the benchmark suite.

Each workload owns its seeded input (plain numpy/scipy generators, not
``repro.graph.generators``, so a change to the library cannot change
what it is measured on), a set-up that takes edge arrays to a ready
state, one timed operation, and the checks that decide whether the
operation's outputs were right.  The runner (``run.py``) drives the
methods in this order::

    prepare -> setup(k) for each set-up -> warm
            -> (next_input, op, after, now and then reference) until time is up
            -> final_checks

``reference`` is one ``scipy.sparse.csgraph.dijkstra`` search on the
workload's input graph: the external compiled baseline, and the unit
the runner expresses operation latency in.

Library calls go through module attributes (``engine.shortest_paths``,
not a local binding) so the traced run's wrappers see them, and every
engine entry point runs at ``backend="numpy", workers=1``: the library
default, and faster than ``workers=2`` on the 2-core reference box
(67 ms against 79-86 ms per ``sssp-gnm`` search).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse.csgraph import dijkstra as sp_dijkstra
from scipy.spatial import cKDTree

from repro import hopsets, serve, spanners
from repro.dynamic import UpdateBatch
from repro.errors import VerificationError
from repro.graph import builders
from repro.paths import engine
from repro.pram.tracker import PramTracker
from repro.spanners.verify import verify_spanner

#: input sizes: each fits well over 100 timed operations of its
#: workload into one 20 s run on the reference box
SIZES: Dict[str, Dict[str, int]] = {
    "sssp-gnm": {"n": 50_000, "m": 250_000},
    "serve-rgg": {"n": 10_000},
    "spanner-gnm": {"n": 8_000, "m": 200_000},
    "churn-rgg": {"n": 10_000},
}

#: outputs of this many leading operations feed the output digest
DIGEST_OPS = 10


def make_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent stream ``stream`` of the run seeded ``seed``."""
    return np.random.Generator(np.random.PCG64([seed, stream]))


def sha256(*arrays: Any) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def connected_gnm(rng: np.random.Generator, n: int, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """``m`` distinct edges on ``n`` vertices: a uniform random recursive
    tree (so the graph is connected) plus uniform random extra pairs."""
    perm = rng.permutation(n)
    u = perm[1:]
    v = perm[(rng.random(n - 1) * np.arange(1, n)).astype(np.int64)]
    while True:
        extra = int(1.1 * (m - u.shape[0])) + 64
        u = np.concatenate([u, rng.integers(0, n, extra)])
        v = np.concatenate([v, rng.integers(0, n, extra)])
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        _, first = np.unique(lo * n + hi, return_index=True)
        first = np.sort(first)  # tree edges first, then draw order
        if first.shape[0] >= m:
            return lo[first[:m]], hi[first[:m]]
        u, v = lo[first], hi[first]


def rgg(rng: np.random.Generator, n: int, degree: float) -> Tuple[np.ndarray, np.ndarray]:
    """Unit-square random geometric graph with the given expected degree;
    edges sorted so the arrays (and their digest) are canonical."""
    radius = float(np.sqrt(degree / (np.pi * n)))
    pairs = cKDTree(rng.random((n, 2))).query_pairs(radius, output_type="ndarray")
    lo = pairs.min(axis=1).astype(np.int64)
    hi = pairs.max(axis=1).astype(np.int64)
    order = np.argsort(lo * n + hi, kind="stable")
    return lo[order], hi[order]


def same_distances(got: np.ndarray, want: np.ndarray) -> bool:
    """Distances agree: same unreached set, and equal elsewhere up to
    the rounding of float path sums."""
    fin = np.isfinite(want)
    return bool(
        np.array_equal(np.isfinite(got), fin)
        and np.allclose(got[fin], want[fin], rtol=1e-12, atol=0.0)
    )


class Workload:
    """Hooks the runner calls; see the module docstring for the order.

    ``tracker`` is a PRAM ledger in traced runs (``None`` otherwise);
    the runner reads its work and depth around set-ups and traced ops.
    """

    name = ""
    why = ""
    #: set-ups per run: ``setup_s`` is their median
    SETUPS = 15

    def __init__(self, seed: int, trace: bool) -> None:
        self.seed = seed
        self.n = SIZES[self.name]["n"]
        self.m = SIZES[self.name].get("m", 0)
        self.tracker: Optional[PramTracker] = PramTracker(n=self.n) if trace else None
        self.digest = hashlib.sha256()
        self.sizes: List[int] = []  # structure sizes behind edges_per_vertex

    def inputs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError

    def prepare(self) -> str:
        """Generate the input edge arrays; returns their sha256."""
        u, v, self.w = self.inputs()
        self.edges = np.stack([u, v], axis=1)
        return sha256(np.int64(self.n), u, v, self.w)

    def setup(self, k: int) -> None:
        """Build the ready state from the edge arrays (``k``-th time)."""
        self.g = builders.from_edges(self.n, self.edges, self.w)

    def warm(self) -> None:
        """Untimed preparation after the last set-up."""
        self.ref_graph = self.g.to_scipy()
        self.ref_sources = make_rng(self.seed, 3)

    def reference(self) -> None:
        """One scipy single-source Dijkstra on the input graph."""
        source = int(self.ref_sources.integers(0, self.n))
        sp_dijkstra(self.ref_graph, directed=False, indices=source)

    def next_input(self, i: int) -> Any:
        raise NotImplementedError

    def op(self, x: Any, traced: bool) -> Any:
        raise NotImplementedError

    def after(self, i: int, x: Any, y: Any) -> List[str]:
        """Keep what the final checks need; return failures found now."""
        return []

    def final_checks(self) -> Dict[int, str]:
        """Failures found after the loop, by op index."""
        return {}

    def counters(self) -> Dict[str, int]:
        """Cumulative layer counters; the runner diffs them per op."""
        return {}

    def edges_per_vertex(self) -> float:
        return float(np.mean(self.sizes)) / self.n


class SsspGnm(Workload):
    name = "sssp-gnm"
    why = (
        "bucket engine and kernels do all the work; no builder, cache or "
        "repair code runs, so serve or dynamic changes must show nothing here"
    )
    CHECKS = 20

    def inputs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rng = make_rng(self.seed, 0)
        u, v = connected_gnm(rng, self.n, self.m)
        return u, v, rng.uniform(1.0, 100.0, u.shape[0])

    def setup(self, k: int) -> None:
        super().setup(k)
        # the first search builds the graph's cached light/heavy split
        engine.shortest_paths(self.g, 0, backend="numpy", workers=1, tracker=self.tracker)
        self.sources = make_rng(self.seed, 1)
        self.kept: List[Tuple[int, int, np.ndarray]] = []

    def next_input(self, i: int) -> int:
        return int(self.sources.integers(0, self.n))

    def op(self, x: int, traced: bool) -> Any:
        return engine.shortest_paths(
            self.g, x, backend="numpy", workers=1,
            tracker=self.tracker if traced else None,
        )

    def after(self, i: int, x: int, y: Any) -> List[str]:
        # the input graph's m / n is fixed; the arcs a search relaxes are
        # what an engine change can move
        self.sizes.append(y.arcs_relaxed)
        if i < DIGEST_OPS:
            self.digest.update(y.dist.tobytes())
        if i < self.CHECKS:
            self.kept.append((i, x, y.dist))
        return []

    def final_checks(self) -> Dict[int, str]:
        if not self.kept:
            return {}
        ref = sp_dijkstra(self.ref_graph, directed=False, indices=[s for _, s, _ in self.kept])
        return {
            i: f"distances from {s} differ from scipy"
            for (i, s, d), want in zip(self.kept, ref)
            if not same_distances(d, want)
        }


class SpannerGnm(Workload):
    name = "spanner-gnm"
    why = (
        "contraction and EST races of the weighted spanner do the work and "
        "no serving code runs; output size tracks the paper's bound"
    )
    K, VERIFY_EVERY, SAMPLE_EDGES = 3.0, 50, 200

    def inputs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rng = make_rng(self.seed, 0)
        u, v = connected_gnm(rng, self.n, self.m)
        return u, v, np.exp2(rng.uniform(0.0, 40.0, u.shape[0]))

    def setup(self, k: int) -> None:
        super().setup(k)
        self.kept: List[Tuple[int, Any]] = []

    def next_input(self, i: int) -> int:
        return (self.seed << 20) + i

    def op(self, x: int, traced: bool) -> Any:
        return spanners.weighted_spanner(
            self.g, self.K, seed=x, backend="numpy", workers=1,
            tracker=self.tracker if traced else None,
        )

    def after(self, i: int, x: int, y: Any) -> List[str]:
        self.sizes.append(y.size)
        if i < DIGEST_OPS:
            self.digest.update(y.edge_ids.tobytes())
        if i % self.VERIFY_EVERY == 0:
            self.kept.append((i, y))
        return []

    def final_checks(self) -> Dict[int, str]:
        bad = {}
        for i, sp in self.kept:
            try:
                verify_spanner(self.g, sp, sample_edges=self.SAMPLE_EDGES, seed=i)
            except VerificationError as exc:
                bad[i] = str(exc)
        return bad


class ServedRgg(Workload):
    """A pool of hopset servers over one random geometric graph.

    Each set-up builds one replica (graph, hopset with its own build
    seed, :class:`repro.serve.DistanceServer`) and operations go
    round-robin over the pool.  Query and repair cost with a single
    hopset swings by up to 2x with its build seed, so a run that served
    from one hopset would measure the seed, not the code.  Both serving
    workloads use the many-small-blocks parameters that localized repair
    needs; they also vary least from build to build.

    Every server's LRU is full before timing starts: ``HOT_SET`` shared
    hot sources plus cold rows of its own.  A cache that filled during
    the run would make memory grow with the number of operations done.
    """

    PARAMS = hopsets.HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.02, gamma2=0.05)
    SETUPS = 14
    CACHE_ROWS, HOT_SET = 12, 4

    def inputs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        u, v = rgg(make_rng(self.seed, 0), self.n, 10.0)
        return u, v, np.ones(u.shape[0])

    def setup(self, k: int) -> None:
        super().setup(k)
        if k == 0:
            self.servers: List[Any] = []
        hs = hopsets.build_hopset(
            self.g, self.PARAMS, seed=self.seed * 1000 + k, backend="numpy",
            workers=1, tracker=self.tracker, record_structure=True,
        )
        self.servers.append(serve.DistanceServer(
            hs, cache_rows=self.CACHE_ROWS, backend="numpy", workers=1,
            tracker=self.tracker,
        ))
        self.sizes.append(self.g.m + hs.size)

    def warm(self) -> None:
        super().warm()
        perm = make_rng(self.seed, 4).permutation(self.n)
        self.hot = perm[: self.HOT_SET]
        cold = self.CACHE_ROWS - self.HOT_SET
        for r, s in enumerate(self.servers):
            s.distances(np.concatenate([self.hot, perm[self.HOT_SET + r * cold:][:cold]]))

    def counters(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for s in self.servers:
            for key, value in s.stats.as_dict().items():
                total[key] = total.get(key, 0) + value
        return total


class ServeRgg(ServedRgg):
    name = "serve-rgg"
    why = (
        "the hopset's purpose: exact distance queries on a large-diameter "
        "graph through the cached, coalescing server; kernel runs set latency"
    )
    BATCH, COLD, ZIPF_A = 64, 3, 1.8
    CHECK_EVERY, CHECKS = 20, 5

    def warm(self) -> None:
        super().warm()
        p = np.arange(1, self.HOT_SET + 1, dtype=np.float64) ** -self.ZIPF_A
        self.hot_p = p / p.sum()
        self.queries = make_rng(self.seed, 1)
        self.kept: List[Tuple[int, np.ndarray, np.ndarray]] = []

    def next_input(self, i: int) -> Tuple[int, np.ndarray]:
        """Hot traffic (Zipf over the hot set) plus ``COLD`` uniform
        sources: every batch pays the same number of kernel runs, so
        latency quantiles do not jump between miss counts.  The least
        popular hot source goes undrawn in ~4% of batches, and cold rows
        evict it from the LRU only after two such batches in a row."""
        q = self.queries
        src = np.concatenate([
            self.hot[q.choice(self.HOT_SET, self.BATCH - self.COLD, p=self.hot_p)],
            q.integers(0, self.n, self.COLD),
        ])
        return i % len(self.servers), np.stack([src, q.integers(0, self.n, self.BATCH)], axis=1)

    def op(self, x: Tuple[int, np.ndarray], traced: bool) -> np.ndarray:
        return self.servers[x[0]].query_batch(x[1])

    def after(self, i: int, x: Tuple[int, np.ndarray], y: np.ndarray) -> List[str]:
        if i < DIGEST_OPS:
            self.digest.update(y.tobytes())
        if i % self.CHECK_EVERY == 0 and len(self.kept) < self.CHECKS:
            self.kept.append((i, x[1], y.copy()))
        return []

    def final_checks(self) -> Dict[int, str]:
        if not self.kept:
            return {}
        # h=None serving converges, so answers are exact distances on G
        sources = np.unique(np.concatenate([x[:, 0] for _, x, _ in self.kept]))
        rows = sp_dijkstra(self.ref_graph, directed=False, indices=sources)
        return {
            i: "served distances differ from scipy"
            for i, x, y in self.kept
            if not same_distances(y, rows[np.searchsorted(sources, x[:, 0]), x[:, 1]])
        }


class ChurnRgg(ServedRgg):
    name = "churn-rgg"
    why = (
        "hopset repair and server swap under link-flap update batches: the "
        "write path, where costlier compiled server state shows"
    )
    FLAP, CHECK_EVERY, DEF24_SOURCES = 10, 25, 8
    #: nothing reads during churn, so each cache holds just the hot set.
    #: On unit weights every flap batch removes an edge tight on every
    #: row, so the first batch on each replica evicts all of it.
    CACHE_ROWS = ServedRgg.HOT_SET

    def warm(self) -> None:
        super().warm()
        self.flaps = make_rng(self.seed, 1)
        self.down: List[List[Tuple[int, int, float]]] = [[] for _ in self.servers]
        self.totals = {"dirty_blocks": 0, "rebuilt_edges": 0}

    def next_input(self, i: int) -> Tuple[int, UpdateBatch]:
        """Take ``FLAP`` random live edges of one replica down and bring
        that replica's previous batch back up, so graphs neither drift
        nor grow."""
        r = i % len(self.servers)
        live = self.servers[r].hopset.graph
        eids = self.flaps.choice(live.m, self.FLAP, replace=False)
        down = [(int(live.edge_u[e]), int(live.edge_v[e]), float(live.edge_w[e])) for e in eids]
        batch = UpdateBatch.from_tuples(self.down[r], [(a, b) for a, b, _ in down])
        self.down[r] = down
        return r, batch

    def op(self, x: Tuple[int, UpdateBatch], traced: bool) -> Dict[str, Any]:
        info = self.servers[x[0]].apply_updates(x[1])
        for key in self.totals:
            self.totals[key] += int(info[key])
        return info

    def after(self, i: int, x: Tuple[int, UpdateBatch], y: Dict[str, Any]) -> List[str]:
        server = self.servers[x[0]]
        hs = server.hopset
        if i < DIGEST_OPS:
            self.digest.update(sha256(hs.eu, hs.ev, hs.ew).encode())
        if i % self.CHECK_EVERY:
            return []
        failures = []
        rng = make_rng(self.seed, 2 + i)
        gs = hs.graph.to_scipy()
        # Definition 2.4: no hopset edge is lighter than the true distance
        # between its endpoints, sampled over a few edge sources
        srcs = np.unique(hs.eu)
        pick = np.sort(rng.choice(srcs, min(self.DEF24_SOURCES, srcs.size), replace=False))
        rows = sp_dijkstra(gs, directed=False, indices=pick)
        sel = np.isin(hs.eu, pick)
        true_d = rows[np.searchsorted(pick, hs.eu[sel]), hs.ev[sel]]
        if (hs.ew[sel] < true_d - 1e-9 * np.maximum(1.0, true_d)).any():
            failures.append("hopset edge lighter than the true distance")
        # served with caching off, so the probe leaves the cache as the
        # timed operations left it
        probe = int(rng.integers(0, self.n))
        keep, server.cache_rows = server.cache_rows, 0
        got = server.distance_row(probe)
        server.cache_rows = keep
        if not same_distances(got, sp_dijkstra(gs, directed=False, indices=probe)):
            failures.append(f"served row of {probe} differs from scipy")
        # rows the update left cached must still be exact (all cache
        # hits, which keep the LRU order)
        cached = server.cached_sources()
        if cached:
            want = sp_dijkstra(gs, directed=False, indices=cached)
            if not all(map(same_distances, server.distances(cached), want)):
                failures.append("a cached row went stale under the update")
        return failures

    def counters(self) -> Dict[str, int]:
        return {**super().counters(), **self.totals}

    def edges_per_vertex(self) -> float:
        """Live graph plus repaired hopset, over the replicas as the
        timed operations left them."""
        live = [s.hopset.graph.m + s.hopset.size for s in self.servers]
        return float(np.mean(live)) / self.n


WORKLOADS = {w.name: w for w in (SsspGnm, ServeRgg, SpannerGnm, ChurnRgg)}
