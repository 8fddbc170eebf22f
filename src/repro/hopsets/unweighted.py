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

The depth-first execution — one ``est_cluster`` per cluster, one
search per center — lives in ``tests/oracles`` as the correctness
oracle: both draw per-subproblem randomness from the same spawned
streams and emit *identical* hopset edge sets for a fixed seed (pinned
by tests and the ``BENCH_hopset.json`` benchmark).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.clustering.est import Clustering, est_cluster_forest
from repro.clustering.shifts import sample_shifts
from repro.errors import ParameterError
from repro.graph.builders import induced_subgraph_forest
from repro.graph.csr import CSRGraph, csr_from_arrays
from repro.hopsets.params import HopsetParams
from repro.hopsets.result import HopsetResult, LevelStats, RepairStructure
from repro.paths.engine import shortest_paths_batch
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import SeedLike, resolve_rng, spawn_seeds
from repro.parallel.pool import DEFAULT_WORKERS, WorkersArg

# cap on rows x columns of one batched center-search distance matrix;
# levels with more large clusters than fit are resolved in a few
# chunked batch calls instead of one (still level-synchronous in
# spirit, and bounded at ~8e6 * 8 bytes per internal array)
_BATCH_CELLS = 8_000_000


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

    def finish(
        self,
        g: CSRGraph,
        meta: Dict[str, float],
        structure: Optional[RepairStructure] = None,
    ) -> HopsetResult:
        if self.eu:
            eu = np.concatenate(self.eu)
            ev = np.concatenate(self.ev)
            ew = np.concatenate(self.ew)
            kind = np.concatenate(self.kind)
        else:
            eu = np.empty(0, np.int64)
            ev = np.empty(0, np.int64)
            ew = np.empty(0, np.float64)
            kind = np.empty(0, np.int8)
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


def _dist_matrix_to_float(D: np.ndarray) -> np.ndarray:
    """Dial/int batch distances -> float64 with ``inf`` for unreached."""
    if D.dtype.kind == "f":
        return D
    out = D.astype(np.float64)
    out[D == np.iinfo(np.int64).max] = np.inf
    return out


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
    backend: Optional[str],
    tracker: PramTracker,
    out: _Collector,
    workers: WorkersArg = DEFAULT_WORKERS,
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
                backend=backend,
                workers=workers,
            )
            mats.append(_dist_matrix_to_float(res.dist))
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
            d = D[slot_of_lab[run_lab[i_idx]], cj]
            fin = np.isfinite(d)
            out.add_edges(vmap[ci[fin]], vmap[cj[fin]], d[fin], kind_code=1)
            out.bump(level, clique_edges=int(fin.sum()))


def _build_level_sync(
    g: CSRGraph,
    params: HopsetParams,
    n_top: int,
    rng: np.random.Generator,
    method: str,
    tracker: PramTracker,
    out: _Collector,
    backend: Optional[str] = None,
    workers: WorkersArg = DEFAULT_WORKERS,
    checkpoint_path: Optional[str] = None,
    structure: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Level-synchronous execution of Algorithm 4.

    Initializes (or resumes from checkpoint) the per-level state and
    hands it to :func:`_run_levels`, which owns the level loop.  When
    ``structure`` is a dict, the level-0 labels and spawned child seeds
    are recorded into it (the substrate of localized dynamic repair,
    :mod:`repro.dynamic`).
    """
    n_final = params.n_final(n_top)
    if g.n <= n_final:
        return

    fp = None
    if checkpoint_path is not None:
        from repro import checkpoint as _ckpt

        # the entry RNG state binds the checkpoint to the seed: resuming
        # under a different (or absent) seed is a fingerprint mismatch
        fp = _ckpt.graph_fingerprint(
            g, params, n_top, method, _ckpt.rng_state(rng)
        )
        saved = _ckpt.load_if_exists(checkpoint_path, "hopset", fp)
    else:
        saved = None

    if saved is not None:
        a = saved.arrays
        union = csr_from_arrays(
            int(saved.scalars["union_n"]),
            a["g_indptr"], a["g_indices"], a["g_weights"], a["g_edge_ids"],
            a["g_edge_u"], a["g_edge_v"], a["g_edge_w"],
        )
        vmap = a["vmap"]
        ptr = a["ptr"]
        rngs = [_ckpt.rng_from_state(s) for s in saved.rng_states]
        level = saved.level
        if a["out_eu"].size:
            out.eu = [a["out_eu"]]
            out.ev = [a["out_ev"]]
            out.ew = [a["out_ew"]]
            out.kind = [a["out_kind"]]
        out.level_stats = {
            int(lv): st for lv, st in saved.scalars["level_stats"].items()
        }
        if structure is not None and "top_labels" in a:
            structure["top_labels"] = a["top_labels"]
            structure["top_seeds"] = a["top_seeds"]
    else:
        union = g
        vmap = np.arange(g.n, dtype=np.int64)
        ptr = np.asarray([0, g.n], dtype=np.int64)
        rngs = [rng]
        level = 0
    _run_levels(
        union,
        vmap,
        ptr,
        rngs,
        level,
        params,
        n_top,
        method,
        tracker,
        out,
        backend=backend,
        workers=workers,
        checkpoint_path=checkpoint_path,
        fp=fp,
        structure=structure,
    )


def _run_levels(
    union: CSRGraph,
    vmap: np.ndarray,
    ptr: np.ndarray,
    rngs: List[np.random.Generator],
    level: int,
    params: HopsetParams,
    n_top: int,
    method: str,
    tracker: PramTracker,
    out: _Collector,
    backend: Optional[str] = None,
    workers: WorkersArg = DEFAULT_WORKERS,
    checkpoint_path: Optional[str] = None,
    fp: Optional[str] = None,
    structure: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """The level loop of the batched builder, from arbitrary entry state.

    State per level: a block-diagonal union of every active subproblem
    (vertices of subproblem ``j`` are the contiguous block
    ``[ptr[j], ptr[j+1])``), the map ``vmap`` back to original ids, and
    one RNG per subproblem.  Each iteration runs one forest EST race,
    one (chunked) batch of center searches, two vectorized edge
    passes, and one forest rebuild for the next level.

    Randomness discipline matches the depth-first oracle
    (``tests/oracles``) stream-for-stream: subproblem ``j`` draws its
    shifts from its own generator, then spawns one child generator per
    cluster (level 0) or per small cluster (deeper) and hands them to
    the surviving children in label order — so both emit identical
    edge sets per seed.

    Because blocks never interact, entering at ``level=1`` with a
    forest of selected level-0 clusters and their recorded spawn seeds
    reproduces — bit for bit — the edges a full build emits for those
    clusters.  That equivalence is what :mod:`repro.dynamic` leans on
    to repair only dirty blocks after an update batch.
    """
    n_final = params.n_final(n_top)
    rho = params.rho(n_top)
    while rngs and level < params.max_levels:
        if checkpoint_path is not None and level:
            from repro import checkpoint as _ckpt

            arrays = {
                "g_indptr": union.indptr,
                "g_indices": union.indices,
                "g_weights": union.weights,
                "g_edge_ids": union.edge_ids,
                "g_edge_u": union.edge_u,
                "g_edge_v": union.edge_v,
                "g_edge_w": union.edge_w,
                "vmap": vmap,
                "ptr": np.asarray(ptr),
                "out_eu": np.concatenate(out.eu) if out.eu else np.empty(0, np.int64),
                "out_ev": np.concatenate(out.ev) if out.ev else np.empty(0, np.int64),
                "out_ew": np.concatenate(out.ew) if out.ew else np.empty(0, np.float64),
                "out_kind": np.concatenate(out.kind) if out.kind else np.empty(0, np.int8),
            }
            if structure is not None and "top_labels" in structure:
                arrays["top_labels"] = structure["top_labels"]
                arrays["top_seeds"] = structure.get(
                    "top_seeds", np.empty(0, np.int64)
                )
            _ckpt.BuildCheckpoint(
                kind="hopset",
                fingerprint=fp,
                level=level,
                rng_states=[_ckpt.rng_state(r) for r in rngs],
                arrays=arrays,
                scalars={"union_n": int(union.n), "level_stats": out.level_stats},
            ).save(checkpoint_path)
        k = len(rngs)
        gsizes = np.diff(ptr)
        beta = params.beta_at(level, n_top)

        # ---- one EST race over every subproblem of the level ----------
        shifts = np.concatenate(
            [sample_shifts(int(sz), beta, r) for sz, r in zip(gsizes, rngs)]
        )
        clustering = est_cluster_forest(
            union, beta, ptr, shifts, method=method, tracker=tracker,
            backend=backend, workers=workers,
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

        if level == 0:
            # top level only splits: every cluster becomes a subproblem
            recurse_mask = np.ones(nclus, dtype=bool)
            local_idx = np.arange(nclus, dtype=np.int64) - lab_start[lab_group]
            spawn_counts = lab_per_group
            if structure is not None:
                # level-0 labels partition the graph into the blocks all
                # deeper work (and every emitted edge) stays inside of
                structure["top_labels"] = clustering.labels.copy()
        else:
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
                backend,
                tracker,
                out,
                workers=workers,
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
        seeds = [spawn_seeds(rngs[j], int(spawn_counts[j])) for j in range(k)]
        if structure is not None and level == 0:
            # child seed of level-0 cluster ``lab`` is ``top_seeds[lab]``
            structure["top_seeds"] = np.asarray(seeds[0], dtype=np.int64).copy()
        new_rngs = [
            resolve_rng(int(seeds[lab_group[lab]][local_idx[lab]]))
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
    workers: WorkersArg = DEFAULT_WORKERS,
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
    backend:
        Shortest-path kernel for every weighted search inside the
        build, as in :func:`repro.paths.engine.shortest_paths`.
    workers:
        Forwarded to every *weighted engine* search inside the build —
        the per-level EST races and the Line-9 center searches.  Only
        the numba backend's batched center searches use it (``1`` =
        serial, ``None`` = all cores, as in
        :func:`repro.paths.engine.shortest_paths_batch`); the numpy
        kernels and the unweighted BFS races run serially.  Hopset
        output is identical for every value.
    record_structure:
        Attach a :class:`repro.hopsets.result.RepairStructure` (the
        level-0 block labels and per-block child seeds) to the result,
        enabling localized repair via :mod:`repro.dynamic`.

    Works on unweighted and (positive-) weighted graphs alike; the
    Section 5 pipeline calls this on rounded integer graphs.
    """
    params = params or HopsetParams()
    tracker = tracker or null_tracker()
    rng = resolve_rng(seed)
    out = _Collector()
    structure: Optional[Dict[str, np.ndarray]] = {} if record_structure else None
    with tracker.phase("hopset"):
        _build_level_sync(
            g,
            params,
            g.n,
            rng,
            method,
            tracker,
            out,
            backend=backend,
            workers=workers,
            checkpoint_path=checkpoint_path,
            structure=structure,
        )
    if checkpoint_path is not None:
        from repro import checkpoint as _ckpt

        _ckpt.clear(checkpoint_path)  # the finished build owns no stale state
    meta = {
        "epsilon": params.epsilon,
        "delta": params.delta,
        "gamma1": params.gamma1,
        "gamma2": params.gamma2,
        "beta0": params.beta0(g.n),
        "rho": params.rho(g.n),
        "n_final": float(params.n_final(g.n)),
        "c_growth": params.c_growth,
        "max_levels": float(params.max_levels),
    }
    repair: Optional[RepairStructure] = None
    if record_structure:
        assert structure is not None
        has_edges = any(a.size for a in out.eu)
        if has_edges and "top_labels" not in structure:
            # resumed from a pre-structure checkpoint: labels are gone
            raise ParameterError(
                "checkpoint predates record_structure; rebuild from scratch"
            )
        repair = RepairStructure(
            top_labels=structure.get(
                "top_labels", np.zeros(g.n, dtype=np.int64)
            ),
            top_seeds=structure.get("top_seeds", np.empty(0, dtype=np.int64)),
        )
    return out.finish(g, meta, structure=repair)
