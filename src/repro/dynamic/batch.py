"""Edge update batches and their application to a live CSR graph.

The dynamic tier models churn as *batches* of undirected edge inserts
and deletes applied atomically:

* deletes are applied first, then inserts;
* inserting a pair that (still) exists **sets** its weight — which is
  what makes every applied batch exactly invertible (the weight it
  replaced is recorded, so ``ApplyResult.inverse`` restores the graph
  bit for bit);
* deleting an absent pair is dropped (and counted), as is an insert
  that would set a weight to its current value.

:func:`apply_batch` produces the updated :class:`CSRGraph` (same
key-sorted edge-list layout ``from_edges`` guarantees, so
``edge_id_lookup`` keeps working), the old→new edge-id map, the set of
*touched* vertices the hopset repair dirties blocks with, and the
added/removed edge views the serving tier uses for exact cache
invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.graph.csr import CSRGraph, build_csr
from repro.graph.dedup import first_of_runs, presence_unique
from repro.graph.validation import check_vertex_ids


def _canonical_pairs(
    us: np.ndarray, vs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orient pairs ``lo < hi`` and drop self-loops; returns keep mask."""
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    keep = lo != hi
    return lo[keep], hi[keep], keep


@dataclass(frozen=True)
class UpdateBatch:
    """A deduplicated batch of undirected edge inserts and deletes.

    Construction normalizes the arrays: endpoints are oriented
    ``u < v``, self-loops are dropped, duplicate inserts keep the
    lightest weight and duplicate deletes collapse to one.  Endpoint
    range checks happen at :func:`apply_batch` time (a batch is not
    bound to a graph until applied).
    """

    insert_u: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    insert_v: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    insert_w: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    delete_u: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    delete_v: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def __post_init__(self) -> None:
        # integral ids only; ranges are checked when a graph is known
        iu = check_vertex_ids(self.insert_u, None, "vertex")
        iv = check_vertex_ids(self.insert_v, None, "vertex")
        iw = np.asarray(self.insert_w, dtype=np.float64)
        if not (iu.shape == iv.shape == iw.shape):
            raise ParameterError("insert arrays must share one shape")
        if iu.size and (iu.min() < 0 or iv.min() < 0):
            raise ParameterError("negative vertex id in insert batch")
        if iw.size and not (np.isfinite(iw).all() and (iw > 0).all()):
            raise ParameterError("insert weights must be positive and finite")
        lo, hi, keep = _canonical_pairs(iu, iv)
        w = iw[keep]
        if lo.size:
            win = first_of_runs((lo, hi), prefer=(w,))
            lo, hi, w = lo[win], hi[win], w[win]
        du = check_vertex_ids(self.delete_u, None, "vertex")
        dv = check_vertex_ids(self.delete_v, None, "vertex")
        if du.shape != dv.shape:
            raise ParameterError("delete arrays must share one shape")
        if du.size and (du.min() < 0 or dv.min() < 0):
            raise ParameterError("negative vertex id in delete batch")
        dlo, dhi, _ = _canonical_pairs(du, dv)
        if dlo.size:
            win = first_of_runs((dlo, dhi))
            dlo, dhi = dlo[win], dhi[win]
        object.__setattr__(self, "insert_u", lo)
        object.__setattr__(self, "insert_v", hi)
        object.__setattr__(self, "insert_w", w)
        object.__setattr__(self, "delete_u", dlo)
        object.__setattr__(self, "delete_v", dhi)

    @property
    def num_inserts(self) -> int:
        return int(self.insert_u.shape[0])

    @property
    def num_deletes(self) -> int:
        return int(self.delete_u.shape[0])

    @property
    def size(self) -> int:
        return self.num_inserts + self.num_deletes

    @classmethod
    def from_tuples(
        cls,
        inserts: Iterable[Tuple[int, int, float]] = (),
        deletes: Iterable[Tuple[int, int]] = (),
    ) -> "UpdateBatch":
        ins = list(inserts)
        dels = list(deletes)
        return cls(
            insert_u=[t[0] for t in ins],
            insert_v=[t[1] for t in ins],
            insert_w=np.asarray([t[2] for t in ins], dtype=np.float64),
            delete_u=[t[0] for t in dels],
            delete_v=[t[1] for t in dels],
        )


@dataclass(frozen=True)
class ApplyResult:
    """Everything downstream repair needs about one applied batch.

    ``added_*`` lists edges along which paths may have *shortened*
    (fresh inserts and weight decreases, at their new weights);
    ``removed_*`` lists edges along which paths may have *lengthened*
    (applied deletes and weight increases, at their old weights).
    Together they drive the serving tier's exact cache staleness test.
    """

    graph: CSRGraph
    old_to_new: np.ndarray  # int64[old m]; -1 where the edge was deleted
    inserted_ids: np.ndarray  # new-graph ids of fresh inserts
    reweighted_ids: np.ndarray  # new-graph ids of weight-set survivors
    touched: np.ndarray  # sorted vertices incident to any applied change
    added_u: np.ndarray
    added_v: np.ndarray
    added_w: np.ndarray
    removed_u: np.ndarray
    removed_v: np.ndarray
    removed_w: np.ndarray
    inverse: UpdateBatch
    stats: Dict[str, int]


def _edge_positions(
    g: CSRGraph, lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Edge ids of each ``(lo, hi)`` pair in ``g`` (or -1), plus found mask."""
    if g.m == 0:
        return np.full(lo.shape[0], -1, np.int64), np.zeros(lo.shape[0], bool)
    keys = lo * np.int64(g.n) + hi
    gkeys = g.edge_u * np.int64(g.n) + g.edge_v
    pos = np.searchsorted(gkeys, keys)
    safe = np.minimum(pos, g.m - 1)
    found = (pos < g.m) & (gkeys[safe] == keys)
    ids = np.where(found, safe, -1).astype(np.int64)
    return ids, found


def apply_batch(g: CSRGraph, batch: UpdateBatch) -> ApplyResult:
    """Apply ``batch`` to ``g`` and return the new graph plus repair views."""
    n = g.n
    for arr in (batch.insert_u, batch.insert_v, batch.delete_u, batch.delete_v):
        check_vertex_ids(arr, n, "vertex")

    # ---- deletes first ------------------------------------------------
    del_ids, del_found = _edge_positions(g, batch.delete_u, batch.delete_v)
    applied_del = del_ids[del_found]
    dropped_deletes = int((~del_found).sum())
    keep_mask = np.ones(g.m, dtype=bool)
    keep_mask[applied_del] = False

    # ---- inserts against the survivors --------------------------------
    ilo, ihi, iw = batch.insert_u, batch.insert_v, batch.insert_w
    ins_ids, ins_found = _edge_positions(g, ilo, ihi)
    # gather only at found ids: an edgeless graph has nothing to index
    survives = np.zeros_like(ins_found)
    survives[ins_found] = keep_mask[ins_ids[ins_found]]
    # weight set on a surviving edge; identical weight is a no-op
    wc_mask = np.zeros_like(survives)
    wc_mask[survives] = g.edge_w[ins_ids[survives]] != iw[survives]
    noop_mask = survives & ~wc_mask
    fresh_mask = ~survives
    dropped_inserts = int(noop_mask.sum())
    wc_ids = ins_ids[wc_mask]
    wc_old_w = g.edge_w[wc_ids]
    wc_new_w = iw[wc_mask]

    new_w_old = g.edge_w.copy()
    new_w_old[wc_ids] = wc_new_w
    kept_ids = np.flatnonzero(keep_mask)
    su, sv, sw = g.edge_u[kept_ids], g.edge_v[kept_ids], new_w_old[kept_ids]
    fu, fv, fw = ilo[fresh_mask], ihi[fresh_mask], iw[fresh_mask]

    cat_u = np.concatenate([su, fu])
    cat_v = np.concatenate([sv, fv])
    cat_w = np.concatenate([sw, fw])
    order = np.argsort(cat_u * np.int64(n) + cat_v, kind="stable")
    new_graph = build_csr(n, cat_u[order], cat_v[order], cat_w[order])

    new_pos = np.empty(order.shape[0], dtype=np.int64)
    new_pos[order] = np.arange(order.shape[0], dtype=np.int64)
    old_to_new = np.full(g.m, -1, dtype=np.int64)
    old_to_new[kept_ids] = new_pos[: kept_ids.shape[0]]
    inserted_ids = new_pos[kept_ids.shape[0]:]
    reweighted_ids = old_to_new[wc_ids]

    # ---- repair views --------------------------------------------------
    dlo, dhi = g.edge_u[applied_del], g.edge_v[applied_del]
    dw = g.edge_w[applied_del]
    dec = wc_new_w < wc_old_w
    added_u = np.concatenate([fu, g.edge_u[wc_ids[dec]]])
    added_v = np.concatenate([fv, g.edge_v[wc_ids[dec]]])
    added_w = np.concatenate([fw, wc_new_w[dec]])
    removed_u = np.concatenate([dlo, g.edge_u[wc_ids[~dec]]])
    removed_v = np.concatenate([dhi, g.edge_v[wc_ids[~dec]]])
    removed_w = np.concatenate([dw, wc_old_w[~dec]])

    touched = presence_unique(
        n, (dlo, dhi, fu, fv, g.edge_u[wc_ids], g.edge_v[wc_ids])
    )

    inverse = UpdateBatch(
        insert_u=np.concatenate([dlo, g.edge_u[wc_ids]]),
        insert_v=np.concatenate([dhi, g.edge_v[wc_ids]]),
        insert_w=np.concatenate([dw, wc_old_w]),
        delete_u=fu,
        delete_v=fv,
    )
    stats = {
        "inserted": int(fu.shape[0]),
        "deleted": int(applied_del.shape[0]),
        "weight_changed": int(wc_ids.shape[0]),
        "dropped_deletes": dropped_deletes,
        "dropped_inserts": dropped_inserts,
        "touched_vertices": int(touched.shape[0]),
    }
    return ApplyResult(
        graph=new_graph,
        old_to_new=old_to_new,
        inserted_ids=inserted_ids,
        reweighted_ids=reweighted_ids,
        touched=touched,
        added_u=added_u,
        added_v=added_v,
        added_w=added_w,
        removed_u=removed_u,
        removed_v=removed_v,
        removed_w=removed_w,
        inverse=inverse,
        stats=stats,
    )
