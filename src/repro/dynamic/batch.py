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

:func:`apply_batch` splices the updated :class:`CSRGraph` out of the
old one (:func:`repro.graph.csr.splice_csr`; its arrays equal
``from_edges`` on the new edge list, so the list stays canonical and
edges keep being found by key) and reports the set of *touched*
vertices and the added/removed edge views: the changed edges, which
the hopset repair dirties blocks with and the serving tier's exact
cache invalidation reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.errors import GraphFormatError, ParameterError
from repro.graph.csr import CSRGraph, key_positions, splice_csr
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
    touched: np.ndarray  # sorted vertices incident to any applied change
    added_u: np.ndarray
    added_v: np.ndarray
    added_w: np.ndarray
    removed_u: np.ndarray
    removed_v: np.ndarray
    removed_w: np.ndarray
    inverse: UpdateBatch
    stats: Dict[str, int]


def apply_batch(g: CSRGraph, batch: UpdateBatch) -> ApplyResult:
    """Apply ``batch`` to ``g`` and return the new graph plus repair views.

    ``g``'s edge list must be canonical (``u < v``, keys ``u * n + v``
    strictly ascending, as :func:`~repro.graph.builders.from_edges`
    and this function produce): edges are found by key, so on any other
    order deletes would miss and inserts would add parallel edges.  A
    :class:`~repro.errors.GraphFormatError` naming the first offending
    edge is raised instead.
    """
    n = g.n
    for arr in (batch.insert_u, batch.insert_v, batch.delete_u, batch.delete_v):
        check_vertex_ids(arr, n, "vertex")
    keys = g.edge_u * np.int64(n) + g.edge_v
    bad = g.edge_u >= g.edge_v
    bad[1:] |= keys[1:] <= keys[:-1]
    if bad.any():
        e = int(np.argmax(bad))
        raise GraphFormatError(
            f"edge {e} ({int(g.edge_u[e])}, {int(g.edge_v[e])}) breaks the "
            "canonical edge order (u < v, keys ascending) that apply_batch needs"
        )

    # ---- one key search for the deletes and the inserts ---------------
    ilo, ihi, iw = batch.insert_u, batch.insert_v, batch.insert_w
    nd = batch.num_deletes
    pos, found = key_positions(
        keys, np.concatenate([batch.delete_u * np.int64(n) + batch.delete_v,
                              ilo * np.int64(n) + ihi])
    )
    applied_del = pos[:nd][found[:nd]]
    dropped_deletes = nd - int(applied_del.shape[0])
    ins_ids = pos[nd:]
    # an insert survives when its pair exists and is not deleted first
    survives = found[nd:] & ~key_positions(applied_del, ins_ids)[1]
    # weight set on a surviving edge; identical weight is a no-op
    wc_mask = np.zeros_like(survives)
    wc_mask[survives] = g.edge_w[ins_ids[survives]] != iw[survives]
    noop_mask = survives & ~wc_mask
    fresh_mask = ~survives
    dropped_inserts = int(noop_mask.sum())
    wc_ids = ins_ids[wc_mask]
    wc_old_w = g.edge_w[wc_ids]
    wc_new_w = iw[wc_mask]
    fu, fv, fw = ilo[fresh_mask], ihi[fresh_mask], iw[fresh_mask]

    # a re-weighted edge leaves its row and comes back at its new weight
    add = ~noop_mask
    new_graph = splice_csr(
        g, np.union1d(applied_del, wc_ids), ins_ids[add], ilo[add], ihi[add], iw[add]
    )

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
