"""Localized hopset repair on the batched builder's level-0 blocks.

A hopset build is one level-0 race, which only splits the graph, and
then the level loop on every level-0 block
(:func:`repro.hopsets.unweighted._run_blocks`): every emitted hopset
edge lives inside one level-0 cluster, and per-block randomness is a
spawned child stream (:class:`repro.hopsets.result.RepairStructure`
records the labels and seeds).  What a block emits is a function of
its *induced subgraph* and its seed alone: the loop cuts each block out
of the graph, races and searches inside the cut, and blocks never
interact.  So after an update batch it suffices to

1. mark a block *dirty* when some changed edge (an insert, delete or
   re-weight: ``ApplyResult.added_*`` and ``removed_*``) has both
   endpoints in it,
2. drop the dirty blocks' edges from the retained structure, and
3. make the build's own call, ``_run_blocks``, on the dirty blocks of
   the *new* graph, with their recorded seeds and the build's recorded
   EST method,

and splice the rebuilt edges back in.  A changed edge between two
blocks is in neither block's induced subgraph, so it dirties neither:
rebuilding them would re-emit exactly the edges it drops.  A clean
block's induced subgraph is unchanged, so its edges are what a rebuild
on the new graph would emit, and the concrete paths certifying
Definition 2.4 for them lie inside the block and persist.  A repair
therefore equals, as an edge multiset, a rebuild of every block on the
new graph with the partition pinned at build time, which is what makes
repairs deterministic and batches invertible.  Marking every edge of
an unchanged graph as changed returns the build's edges exactly
(pinned by ``tests/test_dynamic.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.graph.dedup import presence_unique
from repro.hopsets.params import HopsetParams
from repro.hopsets.result import HopsetResult
from repro.hopsets.unweighted import _Collector, _run_blocks
from repro.pram.tracker import PramTracker, null_tracker


def repair_hopset(
    result: HopsetResult,
    new_graph: CSRGraph,
    changed: Tuple[np.ndarray, np.ndarray],
    params: HopsetParams,
    tracker: Optional[PramTracker] = None,
) -> Tuple[HopsetResult, Dict[str, int]]:
    """Rebuild only the blocks of ``result`` whose induced subgraph a
    changed edge alters.

    ``changed`` holds the endpoint arrays ``(u, v)`` of every edge the
    batch inserted, deleted or re-weighted (``ApplyResult.added_*`` and
    ``removed_*`` together); a block is dirty when both endpoints of
    one lie in it.  ``new_graph`` must share the vertex set of
    ``result.graph`` (update batches change edges, never ``n``).
    Requires the result to carry a
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

    lu, lv = (st.top_labels[np.asarray(ends, dtype=np.int64)] for ends in changed)
    dirty = presence_unique(nb, (lu[lu == lv],))
    dirty_bitmap = np.zeros(nb, dtype=bool)
    dirty_bitmap[dirty] = True
    keep = ~dirty_bitmap[st.top_labels[result.eu]]

    counts = np.bincount(st.top_labels, minlength=nb)
    rebuild = dirty[counts[dirty] > params.n_final(n)]
    out = _Collector()
    _run_blocks(new_graph, st.top_labels, st.top_seeds, rebuild, params, st.method, tracker, out)
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
