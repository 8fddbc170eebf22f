"""Localized hopset repair on the batched builder's level-0 blocks.

The batched builder's level 0 only splits the graph: every emitted
hopset edge lives inside one level-0 cluster, and per-block randomness
is a spawned child stream (:class:`repro.hopsets.result.RepairStructure`
records the labels and seeds).  Blocks never interact, so after an
update batch it suffices to

1. mark every block containing a touched vertex *dirty*,
2. drop the dirty blocks' edges from the retained structure, and
3. re-run the level loop (:func:`repro.hopsets.unweighted._run_levels`)
   from level 1 on the dirty blocks' induced subgraphs of the *new*
   graph, entering with their recorded seeds and the build's recorded
   EST method,

and splice the rebuilt edges back in.  Clean blocks keep their edges:
an intra-block edge of a clean block is unchanged by the batch (both
endpoints of every changed edge are touched), so the concrete paths
certifying Definition 2.4 persist in the new graph; inserts only add
paths.  A clean repair is bit-identical to what a full seeded build
would emit for those blocks *on the original graph* — the partition is
pinned at build time, which is exactly what makes repairs deterministic
and batches invertible.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.graph.builders import induced_subgraph_forest
from repro.graph.csr import CSRGraph
from repro.graph.dedup import presence_unique, stable_argsort
from repro.hopsets.params import HopsetParams
from repro.hopsets.result import HopsetResult
from repro.hopsets.unweighted import _Collector, _run_levels
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import resolve_rng


def repair_hopset(
    result: HopsetResult,
    new_graph: CSRGraph,
    touched: np.ndarray,
    params: HopsetParams,
    tracker: Optional[PramTracker] = None,
) -> Tuple[HopsetResult, Dict[str, int]]:
    """Rebuild only the blocks of ``result`` that ``touched`` dirties.

    ``new_graph`` must share the vertex set of ``result.graph`` (update
    batches change edges, never ``n``).  Requires the result to carry a
    :class:`~repro.hopsets.result.RepairStructure`
    (``build_hopset(..., record_structure=True)``); the dirty blocks
    are rebuilt with the EST method it records.
    """
    st = result.structure
    if st is None:
        raise ParameterError(
            "hopset has no repair structure; build with record_structure=True"
        )
    if new_graph.n != result.graph.n:
        raise ParameterError("update batches must preserve the vertex set")
    tracker = tracker or null_tracker()
    n = new_graph.n
    nb = st.num_blocks

    if nb == 0:
        # trivial build (n <= n_final or max_levels == 0): no edges exist
        # and a rebuild would emit none either
        info = {"dirty_blocks": 0, "rebuilt_blocks": 0,
                "kept_edges": 0, "rebuilt_edges": 0}
        return (
            HopsetResult(
                graph=new_graph, eu=result.eu, ev=result.ev, ew=result.ew,
                kind=result.kind, levels=[], meta=dict(result.meta),
                structure=st,
            ),
            info,
        )

    touched = np.asarray(touched, dtype=np.int64)
    dirty = presence_unique(nb, (st.top_labels[touched],))
    dirty_bitmap = np.zeros(nb, dtype=bool)
    dirty_bitmap[dirty] = True
    keep = ~dirty_bitmap[st.top_labels[result.eu]]

    # members per dirty block, ascending vertex id — the order
    # ``Clustering.members`` handed the original build
    counts = np.bincount(st.top_labels, minlength=nb)
    n_final = params.n_final(n)
    rebuild = dirty[counts[dirty] > n_final]
    out = _Collector()
    if rebuild.size:
        order = stable_argsort(st.top_labels)
        starts = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        groups = [order[starts[b]:starts[b + 1]] for b in rebuild]
        rngs = [resolve_rng(int(st.top_seeds[b])) for b in rebuild]
        forest = induced_subgraph_forest(new_graph, groups)
        _run_levels(
            forest.graph,
            forest.vmap,
            forest.ptr,
            rngs,
            1,
            params,
            n,
            st.method,
            tracker,
            out,
        )
    rebuilt = out.finish(new_graph, {})

    eu = np.concatenate([result.eu[keep], rebuilt.eu])
    ev = np.concatenate([result.ev[keep], rebuilt.ev])
    ew = np.concatenate([result.ew[keep], rebuilt.ew])
    kind = np.concatenate([result.kind[keep], rebuilt.kind])
    info = {
        "dirty_blocks": int(dirty.shape[0]),
        "rebuilt_blocks": int(rebuild.shape[0]),
        "kept_edges": int(keep.sum()),
        "rebuilt_edges": int(rebuilt.size),
    }
    repaired = HopsetResult(
        graph=new_graph, eu=eu, ev=ev, ew=ew, kind=kind,
        levels=rebuilt.levels, meta=dict(result.meta), structure=st,
    )
    return repaired, info
