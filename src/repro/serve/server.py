"""Exact distance-query serving tier.

:class:`DistanceServer` answers s-t and k-source distance queries with
the label-setting bucket engine on ``G``
(:func:`repro.paths.engine.shortest_paths_batch`: Dial on integer
weights, delta-stepping on floats).  Such a search settles each vertex
once and scans each arc once, so hopset shortcuts could only add scans:
a hopset makes few *hops* enough (Lemma 4.2), it does not make exact
search cheaper.  The paper's h-hop query keeps its own home,
:func:`repro.hopsets.query.hopset_distance`.  On top of the engine the
server adds:

* a bounded **LRU cache of source distance rows**: one kernel run
  yields the full distance row of its source, which then answers any
  s-t query for that source in O(1) — serving traffic has hot sources,
  and this is where the throughput lives;
* a **coalescing front door**: a batch of k concurrent s-t queries is
  deduplicated to its distinct uncached sources and dispatched as one
  multi-source kernel call (chunked at ``max_batch_runs`` so a huge
  batch never materializes an unbounded ``k x n`` label block);
* **updates under churn**: :meth:`DistanceServer.apply_updates` repairs
  the held hopset and evicts only the cached rows a batch can change.

Rows are ``float64`` with ``inf`` for vertices a run does not reach.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.checkpoint import graph_fingerprint
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.graph.validation import check_vertex_ids
from repro.hopsets.result import HopsetResult, RepairStructure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dynamic.batch import UpdateBatch
from repro.kernels import resolve_backend
from repro.kernels.numpy_kernel import INT_INF
from repro.paths.engine import shortest_paths_batch
from repro.pram.tracker import PramTracker, null_tracker
from repro.parallel.pool import DEFAULT_WORKERS, WorkersArg

# Auto-chunk target for the front door: kernel calls are sized to
# ~this many flat labels (k = CHUNK_LABELS // n, clamped to [1, 256])
# so per-round gather temporaries stay cache-resident on big graphs.
CHUNK_LABELS = 1 << 18


@dataclass
class ServerStats:
    """Counters a serving tier lives and dies by."""

    queries: int = 0
    batches: int = 0
    kernel_calls: int = 0
    kernel_runs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    rounds: int = 0
    arcs: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "queries": self.queries,
            "batches": self.batches,
            "kernel_calls": self.kernel_calls,
            "kernel_runs": self.kernel_runs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_invalidations": self.cache_invalidations,
            "rounds": self.rounds,
            "arcs": self.arcs,
        }


@dataclass
class DistanceServer:
    """Serve exact s-t / k-source distance queries on ``G``.

    Parameters
    ----------
    hopset:
        A built :class:`~repro.hopsets.result.HopsetResult`.  Its graph
        is the server's whole world; queries never read the hopset
        edges, which are held so :meth:`apply_updates` can repair them.
    backend:
        Engine backend: ``"numpy"`` (default) or ``"numba"``; resolved
        through :func:`repro.kernels.resolve_backend`, so a numba request
        degrades to numpy with a warning when the JIT toolchain is
        missing (CLI callers that demand numba by name are vetted by
        ``require_backend`` before construction).  Every backend
        serves the same exact rows.
    workers:
        Core cap for the numba backend's ``prange`` batch cores
        (``1`` serial, ``None`` = all cores); the numpy kernels run
        serially.  Results are identical for every value.
    cache_rows:
        Maximum source distance rows kept in the LRU (``0`` disables
        caching — every query pays a kernel run; the benchmark's
        singleton baseline).
    max_batch_runs:
        Cap on kernel runs per call; a front-door batch with more
        distinct uncached sources is served in chunks of this size.
        ``None`` (default) auto-sizes the chunk so one call's flat
        label block stays around :data:`CHUNK_LABELS` entries — a
        round's gather temporaries then stay cache-resident, which on
        large graphs is worth far more than sharing round overhead
        across runs.  The evidence is a measurement of the frontier
        hop-limited kernel, which this server ran before it became
        exact-only, not of the engine: at n=10^5 its per-run cost grew
        ~1.7x from k=1 to k=32 in one flat block, and chunks of 2-4
        kept near-singleton per-run cost while the front door still
        coalesced duplicates.  Also the memory bound: label blocks
        are O(``max_batch_runs * n``).
    """

    hopset: HopsetResult
    backend: Optional[str] = None
    workers: WorkersArg = DEFAULT_WORKERS
    cache_rows: int = 128
    max_batch_runs: Optional[int] = None
    tracker: Optional[PramTracker] = None
    stats: ServerStats = field(default_factory=ServerStats)

    def __post_init__(self) -> None:
        if self.cache_rows < 0:
            raise ParameterError("cache_rows must be >= 0")
        if self.max_batch_runs is None:
            self.max_batch_runs = max(
                1, min(256, CHUNK_LABELS // max(self.hopset.graph.n, 1))
            )
        if self.max_batch_runs <= 0:
            raise ParameterError("max_batch_runs must be positive")
        self.backend = resolve_backend(self.backend or "numpy")
        self._n = self.hopset.graph.n
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._tracker = self.tracker or null_tracker()

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        self._cache.clear()

    def cached_sources(self) -> List[int]:
        """Currently cached sources, least recently used first."""
        return list(self._cache)

    def _cache_put(self, s: int, row: np.ndarray) -> None:
        if self.cache_rows == 0:
            return
        self._cache[s] = row
        if len(self._cache) > self.cache_rows:
            self._cache.popitem(last=False)
            self.stats.cache_evictions += 1

    # ------------------------------------------------------------------
    # kernel dispatch
    # ------------------------------------------------------------------
    def _run_kernel(self, sources: np.ndarray) -> np.ndarray:
        """One multi-source kernel call: one run per entry of
        ``sources``; returns the ``(k, n)`` float64 distance block."""
        k = sources.shape[0]
        with self._tracker.phase("serve"):
            res = shortest_paths_batch(
                self.hopset.graph,
                sources,
                backend=self.backend,
                workers=self.workers,
                tracker=self._tracker,
            )
            dist = res.dist
            if dist.dtype != np.float64:  # Dial: int64, INT_INF unreached
                dist = np.where(dist == INT_INF, np.inf, dist.astype(np.float64))
            rounds, arcs = res.relax_rounds, res.arcs_relaxed
        self.stats.kernel_calls += 1
        self.stats.kernel_runs += k
        self.stats.rounds += rounds
        self.stats.arcs += arcs
        return dist.reshape(k, self._n)

    def _rows_for(self, sources: Iterable[int]) -> Dict[int, np.ndarray]:
        """Distance rows for the given (not necessarily distinct)
        sources: cached rows are reused (LRU touch), the rest are
        coalesced into as few kernel calls as ``max_batch_runs``
        allows.  The returned dict outlives any cache eviction the
        insertions below may cause."""
        got: Dict[int, np.ndarray] = {}
        missing: List[int] = []
        for s in check_vertex_ids(sources, self._n).tolist():
            if s in got:
                continue
            row = self._cache.get(s)
            if row is not None:
                self._cache.move_to_end(s)
                self.stats.cache_hits += 1
                got[s] = row
            else:
                self.stats.cache_misses += 1
                missing.append(s)
                got[s] = None  # placeholder keeps first-appearance order
        for lo in range(0, len(missing), self.max_batch_runs):
            chunk = np.asarray(missing[lo : lo + self.max_batch_runs], dtype=np.int64)
            block = self._run_kernel(chunk)
            for i, s in enumerate(chunk):
                row = block[i].copy()  # detach from the k x n block
                got[int(s)] = row
                self._cache_put(int(s), row)
        return got

    # ------------------------------------------------------------------
    # dynamic updates
    # ------------------------------------------------------------------
    def _stale_sources(
        self,
        added: Tuple[np.ndarray, np.ndarray, np.ndarray],
        removed: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> List[int]:
        """Cached sources whose rows may change under the batch.

        Rows are exact distances on G, so a row ``D`` survives iff no
        added edge shortens it
        (``D[u] + w < D[v]`` either way) and no removed edge was tight
        on it (``D[u] + w_old == D[v]`` either way — a tight edge may
        have carried shortest paths, so the distance could grow).
        """
        au, av, aw = added
        ru, rv, rw = removed
        tol = 1e-9
        stale: List[int] = []
        for s, D in self._cache.items():
            bad = False
            if au.size:
                da, db = D[au], D[av]
                bad = bool(
                    np.any(da + aw < db - tol) or np.any(db + aw < da - tol)
                )
            if not bad and ru.size:
                da, db = D[ru], D[rv]
                scale = np.maximum(1.0, np.abs(db))
                tight = np.abs(da + rw - db) <= tol * scale
                scale = np.maximum(1.0, np.abs(da))
                tight |= np.abs(db + rw - da) <= tol * scale
                bad = bool(np.any(tight))
            if bad:
                stale.append(s)
        return stale

    def apply_updates(self, batch: "UpdateBatch") -> Dict[str, object]:
        """Advance the served hopset through one update batch.

        Repairs only the dirty level-0 blocks
        (:func:`repro.dynamic.hopset.repair_hopset` — requires the
        hopset to carry a repair structure) and evicts exactly the
        cached source rows the batch can have changed: rows are exact
        distances, so a row stays warm unless an added edge shortens
        it or a removed edge was tight on it.  Returns the repair
        statistics (including the exact ``inverse`` batch).
        """
        from repro.dynamic.batch import apply_batch
        from repro.dynamic.hopset import repair_hopset
        from repro.hopsets.params import HopsetParams

        if self.hopset.structure is None:
            raise ParameterError(
                "served hopset has no repair structure; build with "
                "record_structure=True"
            )
        meta = self.hopset.meta
        try:
            params = HopsetParams(
                epsilon=float(meta["epsilon"]),
                delta=float(meta["delta"]),
                gamma1=float(meta["gamma1"]),
                gamma2=float(meta["gamma2"]),
                c_growth=float(meta["c_growth"]),
                max_levels=int(meta["max_levels"]),
            )
        except KeyError as exc:
            raise ParameterError(
                f"hopset meta lacks {exc} needed to reconstruct build params"
            ) from exc
        ar = apply_batch(self.hopset.graph, batch)
        repaired, info = repair_hopset(
            self.hopset,
            ar.graph,
            ar.touched,
            params=params,
            backend=self.backend,
            workers=self.workers,
            tracker=self.tracker,
        )
        stale = self._stale_sources(
            (ar.added_u, ar.added_v, ar.added_w),
            (ar.removed_u, ar.removed_v, ar.removed_w),
        )
        for s in stale:
            del self._cache[s]
        self.stats.cache_invalidations += len(stale)
        self.hopset = repaired
        out: Dict[str, object] = dict(ar.stats)
        out.update(info)
        out["invalidated_rows"] = len(stale)
        out["inverse"] = ar.inverse
        return out

    # ------------------------------------------------------------------
    # query API
    # ------------------------------------------------------------------
    def distance_row(self, s: int) -> np.ndarray:
        """Full distance row of ``s`` (cached)."""
        self.stats.queries += 1
        return self._rows_for([s])[int(s)]

    def query(self, s: int, t: int) -> float:
        """One s-t distance (``inf`` when ``t`` is unreachable)."""
        (t,) = check_vertex_ids([t], self._n, "target")
        self.stats.queries += 1
        return float(self._rows_for([s])[int(s)][t])

    def query_batch(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """The coalescing front door: answer ``k`` concurrent s-t
        queries with as few kernel runs as their distinct uncached
        sources require.  Returns distances aligned with ``pairs``."""
        arr = np.asarray(pairs).reshape(-1, 2)
        k = arr.shape[0]
        self.stats.queries += k
        self.stats.batches += 1
        if k == 0:
            return np.empty(0, dtype=np.float64)
        dst = check_vertex_ids(arr[:, 1], self._n, "target")
        src = check_vertex_ids(arr[:, 0], self._n)
        rows = self._rows_for(src)
        # one fancy-index per distinct source: group the pairs by
        # source instead of stacking the rows, which would copy a
        # (distinct sources x n) block
        order = np.argsort(src, kind="stable")
        s_sorted = src[order]
        out = np.empty(k, dtype=np.float64)
        for idx in np.split(order, np.flatnonzero(s_sorted[1:] != s_sorted[:-1]) + 1):
            out[idx] = rows[int(src[idx[0]])][dst[idx]]
        return out

    def distances(self, sources: Sequence[int]) -> np.ndarray:
        """``(k, n)`` distance matrix for ``k`` sources (k-source batch
        query).  Rows are independent copies; duplicates in ``sources``
        cost one kernel run only."""
        src = check_vertex_ids(sources, self._n)
        self.stats.queries += src.shape[0]
        self.stats.batches += 1
        rows = self._rows_for(src)
        if src.shape[0] == 0:
            return np.empty((0, self._n), dtype=np.float64)
        return np.stack([rows[int(s)] for s in src])


# ----------------------------------------------------------------------
# hopset persistence (the CLI's build-or-load contract)
# ----------------------------------------------------------------------
def save_hopset(hopset: HopsetResult, path: str) -> None:
    """Persist a hopset's edges (npz) so serving never rebuilds.

    The file is bound to ``hopset.graph`` by its
    :func:`repro.checkpoint.graph_fingerprint`.  A repair structure,
    when present, rides along — a reloaded hopset then still supports
    :meth:`DistanceServer.apply_updates`.
    """
    extra: Dict[str, np.ndarray] = {}
    if hopset.structure is not None:
        extra["top_labels"] = hopset.structure.top_labels
        extra["top_seeds"] = hopset.structure.top_seeds
    np.savez(
        path,
        fingerprint=np.array(graph_fingerprint(hopset.graph)),
        eu=hopset.eu,
        ev=hopset.ev,
        ew=hopset.ew,
        kind=hopset.kind,
        meta=np.array(json.dumps(hopset.meta)),
        **extra,
    )


def load_hopset(graph: CSRGraph, path: str) -> HopsetResult:
    """Rehydrate a saved hopset against its graph.

    Raises :class:`ParameterError` unless the file carries the graph's
    fingerprint: a hopset of another graph (an edge deleted, a weight
    changed) would serve wrong distances.
    """
    expected = graph_fingerprint(graph)
    with np.load(path, allow_pickle=False) as z:
        saved = str(z["fingerprint"]) if "fingerprint" in z.files else None
        if saved != expected:
            built_for = (
                "an unrecorded graph" if saved is None
                else f"another graph (fingerprint {saved[:16]})"
            )
            raise ParameterError(
                f"hopset file {path} was built for {built_for}, not this "
                f"graph (n={graph.n}, m={graph.m}, fingerprint "
                f"{expected[:16]}); rebuild it"
            )
        meta = json.loads(str(z["meta"]))
        structure = None
        if "top_labels" in z.files:
            structure = RepairStructure(
                top_labels=z["top_labels"], top_seeds=z["top_seeds"]
            )
        return HopsetResult(
            graph=graph,
            eu=z["eu"],
            ev=z["ev"],
            ew=z["ew"],
            kind=z["kind"],
            levels=[],
            meta=meta,
            structure=structure,
        )
