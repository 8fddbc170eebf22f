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
  multi-source kernel call (chunked so a huge batch never materializes
  an unbounded ``k x n`` label block);
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
from repro.clustering.est import EST_METHODS
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.graph.validation import check_vertex_ids
from repro.hopsets.result import HopsetResult, RepairStructure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dynamic.batch import UpdateBatch
from repro.kernels import check_backend
from repro.kernels.numpy_kernel import INT_INF
from repro.paths.engine import shortest_paths_batch
from repro.pram.tracker import PramTracker, null_tracker

# Chunk target for the front door: kernel calls are sized to
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
    backend, workers:
        Kept only because the repository benchmark passes
        ``backend="numpy", workers=1``: ``backend`` must be ``None`` or
        ``"numpy"`` (anything else raises :class:`ParameterError`) and
        ``workers`` is unused.  Both go with ROADMAP item 10(d).
    cache_rows:
        Maximum source distance rows kept in the LRU (``0`` disables
        caching — every query pays a kernel run; the benchmark's
        singleton baseline).

    A front-door batch is served in kernel calls of at most
    ``max(1, min(256, CHUNK_LABELS // n))`` distinct uncached sources,
    so one call's flat label block stays around :data:`CHUNK_LABELS`
    entries — a round's gather temporaries then stay cache-resident,
    which on large graphs is worth far more than sharing round overhead
    across runs.  The evidence is a measurement of the frontier
    hop-limited kernel, which this server ran before it became
    exact-only, not of the engine: at n=10^5 its per-run cost grew
    ~1.7x from k=1 to k=32 in one flat block, and chunks of 2-4 kept
    near-singleton per-run cost while the front door still coalesced
    duplicates.  The chunk also bounds a call's label block to
    O(``256 * n``) entries.
    """

    hopset: HopsetResult
    backend: Optional[str] = None
    workers: Optional[int] = None
    cache_rows: int = 128
    tracker: Optional[PramTracker] = None
    stats: ServerStats = field(default_factory=ServerStats)

    def __post_init__(self) -> None:
        check_backend(self.backend)
        if self.cache_rows < 0:
            raise ParameterError("cache_rows must be >= 0")
        self._n = self.hopset.graph.n
        self._chunk = max(1, min(256, CHUNK_LABELS // max(self._n, 1)))
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
                self.hopset.graph, sources, tracker=self._tracker
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
        coalesced into as few kernel calls as the chunk allows.  The
        returned dict outlives any cache eviction the insertions below
        may cause."""
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
        for lo in range(0, len(missing), self._chunk):
            chunk = np.asarray(missing[lo : lo + self._chunk], dtype=np.int64)
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
        sources require.  Returns distances aligned with ``pairs``,
        which must form a ``(k, 2)`` array of ``(source, target)`` ids
        (empty input returns an empty array)."""
        try:
            arr = np.asarray(pairs)
        except ValueError as exc:  # ragged rows
            raise ParameterError(f"pairs must be a (k, 2) array: {exc}") from exc
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        elif arr.ndim != 2 or arr.shape[1] != 2:
            raise ParameterError(
                f"pairs must be a (k, 2) array of (source, target) ids, "
                f"got shape {arr.shape}"
            )
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
    when present, rides along with the build's EST method — a reloaded
    hopset then still supports :meth:`DistanceServer.apply_updates`.
    """
    extra: Dict[str, np.ndarray] = {}
    if hopset.structure is not None:
        extra["top_labels"] = hopset.structure.top_labels
        extra["top_seeds"] = hopset.structure.top_seeds
        extra["method"] = np.array(hopset.structure.method)
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
    changed) would serve wrong distances.  The edge arrays must fit the
    graph (:func:`_load_edges`), and so must a repair structure
    (:func:`_load_structure`); a file written before the build method
    was recorded loads as ``"auto"``, the only method ``repro serve``
    builds with.
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
        eu, ev, ew, kind = _load_edges(z, graph.n, path)
        structure = None
        if "top_labels" in z.files:
            structure = _load_structure(z, graph.n, path)
        return HopsetResult(
            graph=graph,
            eu=eu,
            ev=ev,
            ew=ew,
            kind=kind,
            levels=[],
            meta=meta,
            structure=structure,
        )


def _load_edges(
    z: "np.lib.npyio.NpzFile", n: int, path: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The saved ``eu, ev, ew, kind``, refused with a
    :class:`ParameterError` naming ``path`` unless they describe edges
    of an ``n``-vertex graph: integer endpoints in ``[0, n)``, finite
    non-negative weights and star/clique kinds, all of one length."""
    eu, ev, ew, kind = z["eu"], z["ev"], z["ew"], z["kind"]
    problem = None
    if (eu.ndim != 1 or ev.shape != eu.shape
            or eu.dtype.kind not in "iu" or ev.dtype.kind not in "iu"):
        problem = (
            f"eu has shape {eu.shape} and ev {ev.shape}; expected two 1-D "
            "integer arrays of one length"
        )
    elif eu.size and not (
        min(eu.min(), ev.min()) >= 0 and max(eu.max(), ev.max()) < n
    ):
        problem = f"edge endpoints outside [0, {n})"
    elif (ew.shape != eu.shape or ew.dtype.kind not in "iuf"
            or not np.all(np.isfinite(ew) & (ew >= 0))):
        problem = (
            f"ew has shape {ew.shape}; expected {eu.size} finite "
            "non-negative weights"
        )
    elif kind.shape != eu.shape or not np.isin(kind, (0, 1)).all():
        problem = f"kind has shape {kind.shape}; expected {eu.size} entries in {{0, 1}}"
    if problem is not None:
        raise ParameterError(
            f"hopset file {path} carries edges that do not fit this graph: {problem}"
        )
    return eu, ev, ew, kind


def _load_structure(z: "np.lib.npyio.NpzFile", n: int, path: str) -> RepairStructure:
    """The saved repair structure, refused with a :class:`ParameterError`
    naming ``path`` unless a repair can index with it: ``n`` integer
    ``top_labels``, one integer seed per block, every label a block
    (a build that recorded no blocks emitted no edges, and a repair
    then reads no label), and a known method."""
    labels, seeds = z["top_labels"], z["top_seeds"]
    method = str(z["method"]) if "method" in z.files else "auto"
    problem = None
    if (labels.shape != (n,) or labels.dtype.kind not in "iu"
            or seeds.ndim != 1 or seeds.dtype.kind not in "iu"):
        problem = (
            f"top_labels has shape {labels.shape} and top_seeds {seeds.shape}; "
            f"expected {n} integer labels and one integer seed per block"
        )
    elif (seeds.size or z["eu"].size) and n and not (
        labels.min() >= 0 and labels.max() < seeds.size
    ):
        problem = f"top_labels holds labels outside [0, {seeds.size})"
    elif method not in EST_METHODS:
        problem = f"unknown build method {method!r}"
    if problem is not None:
        raise ParameterError(
            f"hopset file {path} carries a repair structure that does not fit "
            f"this graph: {problem}"
        )
    return RepairStructure(top_labels=labels, top_seeds=seeds, method=method)
