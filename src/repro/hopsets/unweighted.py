"""Algorithm 4: level-synchronous hopset construction.

Structure (Section 4):

1. Cluster the current (sub)graph with the level's ``beta_i``
   (Claim 4.1 schedule).
2. First call: recurse on *every* cluster — the top level only breaks
   the graph into diameter-``O(beta0^-1 log n)`` pieces.
3. Deeper calls: clusters with at least ``|V| / rho`` vertices are
   *large*: put a star on the center (edges ``(v, center)`` weighted by
   the clustering tree distance — a concrete path, as Definition 2.4
   requires) and connect all large-cluster centers into a clique
   weighted by their true distances in the current subgraph (computed
   from one search per center, exactly the paper's Line 9).
4. Recurse on the small clusters with ``beta_{i+1} = growth * beta_i``
   until pieces have at most ``n_final`` vertices.

The paper states this as a *parallel* recursion: every subproblem at
one level is independent.  The builder executes it that way —
**level-synchronously**: all active subproblems are packed into one
block-diagonal CSR union
(:func:`repro.graph.builders.induced_subgraph_forest`), a *single* EST
race clusters every subproblem at once
(:func:`repro.clustering.est.est_cluster_forest` — waves cannot cross
blocks), all Line-9 center searches of the level are resolved by one
batched multi-run engine call
(:func:`repro.paths.engine.shortest_paths_batch`, with centers of
different subproblems sharing a run because their blocks are mutually
unreachable), and star/clique edges fall out of vectorized passes over
the level's label arrays.  The PRAM ledger's per-level max-depth
semantics then come from the shared schedules themselves instead of
``parallel_children`` bookkeeping.

Level 0 emits no edge, so a build is one level-0 race followed by
:func:`_run_blocks` on every level-0 block that recurses, the same
entry :func:`repro.dynamic.repair_hopset` calls with the blocks an
update batch dirties.  With ``checkpoint_path=`` the level loop saves,
before each level, the union's vertex lists, the RNG cursors, the
edges and level stats so far, and the level-0 labels and seeds
(:mod:`repro.checkpoint`); a resumed build re-cuts the union from
``g`` in one call.

The depth-first execution — one ``est_cluster`` per cluster, one
search per center — lives in ``tests/oracles`` as the correctness
oracle: both draw per-subproblem randomness from the same spawned
streams and emit *identical* hopset edge sets for a fixed seed (pinned
by tests and the ``BENCH_hopset.json`` benchmark).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.checkpoint import BuildCheckpoint, CheckpointCut, State, rng_state
from repro.clustering.est import Clustering, est_cluster_forest
from repro.clustering.shifts import sample_shifts
from repro.graph.builders import induced_subgraph_forest
from repro.graph.csr import CSRGraph
from repro.graph.dedup import stable_argsort
from repro.hopsets.params import HopsetParams
from repro.hopsets.result import HopsetResult, LevelStats, RepairStructure
from repro.kernels import check_backend
from repro.kernels.numpy_kernel import INT_INF
from repro.paths.engine import shortest_paths_batch
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import SeedLike, resolve_rng, spawn_seeds

# cap on rows x columns of one batched center-search distance matrix;
# levels with more large clusters than fit are resolved in a few
# chunked batch calls instead of one (still level-synchronous in
# spirit, and bounded at ~8e6 * 8 bytes per internal array)
_BATCH_CELLS = 8_000_000

# checkpoint keys of the collected edges
_EDGE_KEYS = ("out_eu", "out_ev", "out_ew", "out_kind")


class _Collector:
    """Accumulates hopset edges and per-level statistics."""

    def __init__(self) -> None:
        self.eu: List[np.ndarray] = []
        self.ev: List[np.ndarray] = []
        self.ew: List[np.ndarray] = []
        self.kind: List[np.ndarray] = []
        self.level_stats: Dict[int, Dict[str, float]] = {}

    def add_edges(
        self,
        eu: np.ndarray,
        ev: np.ndarray,
        ew: np.ndarray,
        kind_code: int,
    ) -> None:
        eu = np.asarray(eu, dtype=np.int64)
        if eu.size == 0:
            return
        self.eu.append(eu)
        self.ev.append(np.asarray(ev, dtype=np.int64))
        self.ew.append(np.asarray(ew, dtype=np.float64))
        self.kind.append(np.full(eu.shape[0], kind_code, dtype=np.int8))

    def bump(self, level: int, **counts: float) -> None:
        d = self.level_stats.setdefault(
            level,
            {
                "subproblems": 0,
                "vertices": 0,
                "clusters": 0,
                "large_clusters": 0,
                "star_edges": 0,
                "clique_edges": 0,
                "beta": 0.0,
            },
        )
        for k, v in counts.items():
            if k == "beta":
                d[k] = max(d[k], v)
            else:
                d[k] += v

    def edges(self) -> Tuple[np.ndarray, ...]:
        """The edges collected so far: ``eu``, ``ev``, ``ew``, ``kind``."""
        parts = (self.eu, self.ev, self.ew, self.kind)
        dtypes = (np.int64, np.int64, np.float64, np.int8)
        return tuple(np.concatenate(p) if p else np.empty(0, t) for p, t in zip(parts, dtypes))

    def state(self, **arrays: np.ndarray) -> State:
        """A checkpoint of the edges and level stats so far, with ``arrays``."""
        arrays.update(zip(_EDGE_KEYS, self.edges()))
        return arrays, {"level_stats": self.level_stats}

    def restore(self, saved: BuildCheckpoint) -> None:
        """Take back the edges and level stats of a :meth:`state` checkpoint."""
        if saved.arrays["out_eu"].size:
            self.eu, self.ev, self.ew, self.kind = ([saved.arrays[k]] for k in _EDGE_KEYS)
        self.level_stats = {
            int(lv): st for lv, st in saved.scalars["level_stats"].items()
        }

    def finish(
        self,
        g: CSRGraph,
        meta: Dict[str, float],
        structure: Optional[RepairStructure] = None,
    ) -> HopsetResult:
        eu, ev, ew, kind = self.edges()
        levels = [
            LevelStats(
                level=lv,
                subproblems=int(d["subproblems"]),
                vertices=int(d["vertices"]),
                clusters=int(d["clusters"]),
                large_clusters=int(d["large_clusters"]),
                star_edges=int(d["star_edges"]),
                clique_edges=int(d["clique_edges"]),
                beta=float(d["beta"]),
            )
            for lv, d in sorted(self.level_stats.items())
        ]
        return HopsetResult(
            graph=g, eu=eu, ev=ev, ew=ew, kind=kind, levels=levels, meta=meta,
            structure=structure,
        )


def _pairs_within_segments(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All ``i < j`` index pairs inside each segment of a flat array.

    ``counts[s]`` is the length of segment ``s``; returned indices are
    global positions, emitted in (segment, i, j) row-major order — the
    same order the depth-first oracle's per-subproblem double loop uses.
    Fully vectorized (repeat/cumsum), no Python loop over segments.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    starts = np.zeros(counts.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    partners = np.repeat(counts, counts) - 1 - local  # pairs led by each element
    pair_total = int(partners.sum())
    if pair_total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    i_idx = np.repeat(np.arange(total, dtype=np.int64), partners)
    block = np.zeros(total, dtype=np.int64)
    np.cumsum(partners[:-1], out=block[1:])
    j_idx = i_idx + 1 + np.arange(pair_total, dtype=np.int64) - np.repeat(block, partners)
    return i_idx, j_idx


def _emit_level_edges(
    level: int,
    union: CSRGraph,
    vmap: np.ndarray,
    clustering: Clustering,
    large_mask: np.ndarray,
    lab_group: np.ndarray,
    k: int,
    tracker: PramTracker,
    out: _Collector,
) -> None:
    """Star and clique edges for one level, as vectorized label passes.

    Every Line-9 center search of the level runs inside a handful of
    :func:`shortest_paths_batch` calls: centers get a *slot* (their
    rank among their subproblem's large clusters) and all centers
    sharing a slot form one batch run — they live in different blocks
    of the union, so one multi-source search resolves them all without
    interference.  The dense ``(slots, n)`` distance matrix then gives
    the clique weights by pure fancy indexing.  Only subproblems with
    at least two large clusters need a search: star edges take the
    race's cluster-tree distance (Algorithm 4 line 8).
    """
    labels = clustering.labels
    centers = clustering.centers
    nclus = clustering.num_clusters

    large_per_group = np.bincount(lab_group[large_mask], minlength=k)
    need = large_per_group >= 2
    run_lab = np.flatnonzero(large_mask & need[lab_group])

    D: Optional[np.ndarray] = None
    slot_of_lab = np.full(nclus, -1, dtype=np.int64)
    run_counts = np.zeros(k, dtype=np.int64)
    if run_lab.size:
        rgrp = lab_group[run_lab]
        run_counts = np.bincount(rgrp, minlength=k)
        starts = np.zeros(k, dtype=np.int64)
        np.cumsum(run_counts[:-1], out=starts[1:])
        slot = np.arange(run_lab.shape[0], dtype=np.int64) - starts[rgrp]
        slot_of_lab[run_lab] = slot
        nslots = int(slot.max()) + 1
        # group centers by slot (stable: keeps subproblem order per run)
        by_slot = np.argsort(slot, kind="stable")
        slot_counts = np.bincount(slot, minlength=nslots)
        runs = np.split(
            centers[run_lab[by_slot]], np.cumsum(slot_counts)[:-1]
        )
        w_int = union.weights.astype(np.int64)
        use_int = bool(np.array_equal(w_int.astype(np.float64), union.weights))
        rows = max(1, _BATCH_CELLS // max(union.n, 1))
        mats = []
        for s0 in range(0, nslots, rows):
            res = shortest_paths_batch(
                union,
                runs[s0 : s0 + rows],
                weights=w_int if use_int else None,
                tracker=tracker,
            )
            mats.append(res.dist)
        D = mats[0] if len(mats) == 1 else np.vstack(mats)

    # ---- star edges: large-cluster members -> their center ------------
    v_all = np.arange(union.n, dtype=np.int64)
    cen_v = centers[labels]
    sel = large_mask[labels] & (v_all != cen_v)
    vs = v_all[sel]
    if vs.size:
        sw = clustering.dist_to_center[vs]
        fin = np.isfinite(sw)
        out.add_edges(vmap[vs[fin]], vmap[cen_v[vs][fin]], sw[fin], kind_code=0)
        out.bump(level, star_edges=int(fin.sum()))

    # ---- clique edges among each subproblem's large centers -----------
    if run_lab.size:
        i_idx, j_idx = _pairs_within_segments(run_counts)
        if i_idx.size:
            ci = centers[run_lab[i_idx]]
            cj = centers[run_lab[j_idx]]
            # gather the clique entries from the matrix as it is (Dial
            # rows are int64, INT_INF unreached): add_edges converts
            # only the kept weights to float64
            d = D[slot_of_lab[run_lab[i_idx]], cj]
            fin = d != INT_INF if d.dtype.kind == "i" else np.isfinite(d)
            out.add_edges(vmap[ci[fin]], vmap[cj[fin]], d[fin], kind_code=1)
            out.bump(level, clique_edges=int(fin.sum()))


_NO_CUT = CheckpointCut(None, "hopset", None)


def _run_blocks(
    g: CSRGraph,
    labels: np.ndarray,
    seeds: np.ndarray,
    blocks: np.ndarray,
    params: HopsetParams,
    method: str,
    tracker: PramTracker,
    out: _Collector,
    cut: CheckpointCut = _NO_CUT,
    saved: Optional[BuildCheckpoint] = None,
) -> None:
    """Levels 1 and deeper of Algorithm 4 on level-0 blocks of ``g``.

    Block ``b`` is the vertex set ``labels == b`` (ascending ids) and
    draws from the stream ``seeds[b]``.  A build passes every block
    larger than ``n_final`` in ``blocks``, and
    :func:`repro.dynamic.repair_hopset` the dirty ones; blocks never
    interact, so both emit, bit for bit, a full build's edges for those
    blocks.  ``saved``, a checkpoint of ``cut``, resumes the loop.

    State per level: a block-diagonal union of every active subproblem
    (vertices of subproblem ``j`` are the contiguous block
    ``[ptr[j], ptr[j+1])``), the map ``vmap`` back to ids of ``g``, and
    one RNG per subproblem.  Each iteration runs one forest EST race,
    one (chunked) batch of center searches, two vectorized edge
    passes, and one forest rebuild for the next level.

    Randomness discipline matches the depth-first oracle
    (``tests/oracles``) stream-for-stream: subproblem ``j`` draws its
    shifts from its own generator, then spawns one child generator per
    small cluster and hands them to the surviving children in label
    order, so both emit identical edge sets per seed.
    """
    if saved is not None:
        groups = np.split(saved.arrays["vmap"], saved.arrays["ptr"][1:-1])
        rngs = saved.generators()
        level = saved.level
        out.restore(saved)
    elif blocks.size:
        order = stable_argsort(labels)
        starts = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=seeds.size))))
        groups = [order[starts[b] : starts[b + 1]] for b in blocks]
        rngs = [resolve_rng(int(seeds[b])) for b in blocks]
        level = 1
    else:
        return
    # an induced subgraph of an induced subgraph is the induced subgraph
    # of the composed vertex list, so one cut of g enters any level
    forest = induced_subgraph_forest(g, groups)
    union, vmap, ptr = forest.graph, forest.vmap, forest.ptr
    n_final = params.n_final(g.n)
    rho = params.rho(g.n)
    while rngs and level < params.max_levels:
        state = partial(out.state, vmap=vmap, ptr=ptr, top_labels=labels, top_seeds=seeds)
        cut.save(level, rngs, state)
        k = len(rngs)
        gsizes = np.diff(ptr)
        beta = params.beta_at(level, g.n)

        # ---- one EST race over every subproblem of the level ----------
        shifts = np.concatenate(
            [sample_shifts(int(sz), beta, r) for sz, r in zip(gsizes, rngs)]
        )
        clustering = est_cluster_forest(
            union, beta, ptr, shifts, method=method, tracker=tracker
        )
        sizes = clustering.sizes
        centers = clustering.centers
        nclus = clustering.num_clusters
        group_of = np.repeat(np.arange(k, dtype=np.int64), gsizes)
        lab_group = group_of[centers]  # owning subproblem per cluster
        lab_per_group = np.bincount(lab_group, minlength=k)
        lab_start = np.zeros(k, dtype=np.int64)
        np.cumsum(lab_per_group[:-1], out=lab_start[1:])
        out.bump(
            level,
            subproblems=k,
            vertices=int(union.n),
            clusters=int(nclus),
            beta=beta,
        )

        large_mask = sizes >= (gsizes.astype(np.float64) / rho)[lab_group]
        out.bump(level, large_clusters=int(large_mask.sum()))
        _emit_level_edges(
            level,
            union,
            vmap,
            clustering,
            large_mask,
            lab_group,
            k,
            tracker,
            out,
        )
        recurse_mask = ~large_mask
        # index of each small cluster among its subproblem's smalls
        csum = np.cumsum(recurse_mask.astype(np.int64))
        padded = np.concatenate(([0], csum))
        local_idx = csum - 1 - padded[lab_start][lab_group]
        spawn_counts = np.maximum(
            np.bincount(lab_group[recurse_mask], minlength=k), 1
        )

        child_labels = np.flatnonzero(recurse_mask & (sizes > n_final))
        if child_labels.size == 0:
            break
        child_seeds = [spawn_seeds(rngs[j], int(spawn_counts[j])) for j in range(k)]
        new_rngs = [
            resolve_rng(int(child_seeds[lab_group[lab]][local_idx[lab]]))
            for lab in child_labels
        ]
        child_groups = [clustering.members(int(lab)) for lab in child_labels]

        forest = induced_subgraph_forest(union, child_groups)
        vmap = vmap[forest.vmap]
        union = forest.graph
        ptr = forest.ptr
        rngs = new_rngs
        level += 1


def build_hopset(
    g: CSRGraph,
    params: Optional[HopsetParams] = None,
    seed: SeedLike = None,
    method: str = "auto",
    tracker: Optional[PramTracker] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    record_structure: bool = False,
) -> HopsetResult:
    """Run Algorithm 4 on ``g`` and return the hopset.

    Parameters
    ----------
    params:
        :class:`HopsetParams`; defaults are laptop-scale analogues of
        Theorem 4.4's ``delta = 1.1`` example.
    method:
        EST/BFS execution mode: ``auto`` (engine per weight type),
        ``round``, or ``exact``.
    backend, workers:
        Kept only because the repository benchmark passes
        ``backend="numpy", workers=1``: ``backend`` must be ``None`` or
        ``"numpy"`` (anything else raises :class:`ParameterError`) and
        ``workers`` is unused.  Both go with ROADMAP item 10(d).
    record_structure:
        Attach a :class:`repro.hopsets.result.RepairStructure` (the
        level-0 block labels, per-block child seeds and ``method``) to
        the result, enabling localized repair via :mod:`repro.dynamic`.

    Works on unweighted and (positive-) weighted graphs alike; the
    Section 5 pipeline calls this on rounded integer graphs.
    """
    check_backend(backend)
    params = params or HopsetParams()
    tracker = tracker or null_tracker()
    rng = resolve_rng(seed)
    # the entry RNG state binds the checkpoint to the seed: resuming
    # under a different (or absent) seed is a fingerprint mismatch
    cut = CheckpointCut(
        checkpoint_path, "hopset", g, params, g.n, method, rng_state(rng)
    )
    out = _Collector()
    labels = np.zeros(g.n, dtype=np.int64)
    seeds = blocks = np.empty(0, dtype=np.int64)
    n_final = params.n_final(g.n)
    with tracker.phase("hopset"):
        saved = cut.resume()
        if saved is not None:
            labels, seeds = saved.arrays["top_labels"], saved.arrays["top_seeds"]
        elif g.n > n_final and params.max_levels > 0:
            # level 0 only splits g: no edges, one child stream per
            # cluster, and the clusters above n_final recurse
            beta = params.beta_at(0, g.n)
            top = est_cluster_forest(
                g, beta, np.asarray([0, g.n], dtype=np.int64),
                sample_shifts(g.n, beta, rng), method=method, tracker=tracker,
            )
            out.bump(0, subproblems=1, vertices=g.n, clusters=top.num_clusters, beta=beta)
            labels = top.labels
            blocks = np.flatnonzero(top.sizes > n_final)
            if blocks.size:
                seeds = spawn_seeds(rng, top.num_clusters)
        _run_blocks(g, labels, seeds, blocks, params, method, tracker, out, cut, saved)
    cut.clear()  # the finished build owns no stale state
    meta = {
        "epsilon": params.epsilon,
        "delta": params.delta,
        "gamma1": params.gamma1,
        "gamma2": params.gamma2,
        "beta0": params.beta0(g.n),
        "rho": params.rho(g.n),
        "n_final": float(n_final),
        "c_growth": params.c_growth,
        "max_levels": float(params.max_levels),
    }
    repair = (
        RepairStructure(top_labels=labels, top_seeds=seeds, method=method)
        if record_structure
        else None
    )
    return out.finish(g, meta, structure=repair)
