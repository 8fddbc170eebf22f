"""Golden digest of every seeded output the package produces.

:func:`compute` runs each seeded builder and search on four small graph
families (an unweighted gnm graph, a unit random geometric graph, a
weighted gnm graph and the bundled Zachary karate club) and records,
per call, a sha256 over its output arrays next to the call's full PRAM
ledger (work, depth, rounds and the per-phase maps).
``tests/test_golden.py`` compares the committed ``tests/data/golden.json``
with a fresh run, so a refactor that claims "outputs unchanged" is
checked in tier-1.

Regenerate the file (only for a change whose moved entries CHANGES.md
explains) with::

    PYTHONPATH=src python tests/golden_digest.py

Float arrays are hashed rounded to 9 decimals, so a last-bit
difference in a platform's ``exp``/``log`` does not move a digest;
integer arrays (labels, parents, edge ids and endpoints) are hashed
exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

import numpy as np

from repro import (
    HopsetParams,
    PramTracker,
    baswana_sen_spanner,
    build_cluster_tree,
    build_hopset,
    build_limited_hopset,
    build_weighted_hopset,
    cohen_style_hopset,
    est_cluster,
    gnm_random_graph,
    ks97_hopset,
    load_snap,
    low_diameter_decomposition,
    random_geometric_graph,
    spanner_sparsify,
    unweighted_spanner,
    weighted_spanner,
    with_random_weights,
)
from repro.dynamic import UpdateBatch
from repro.graph.parallel_connectivity import parallel_connectivity
from repro.paths.engine import shortest_paths, shortest_paths_batch
from repro.serve import DistanceServer
from repro.spanners.low_stretch_tree import low_stretch_spanning_tree

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_PATH = DATA / "golden.json"
FORMAT = 1

PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5)


def _digest(*arrays: Any) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        if a.dtype.kind == "f":
            a = np.round(a.astype(np.float64), 9) + 0.0  # +0.0 folds -0.0
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _ledger(t: PramTracker) -> Dict[str, Any]:
    return {
        "work": int(t.work),
        "depth": int(t.depth),
        "rounds": int(t.rounds),
        "phase_work": {k: int(v) for k, v in sorted(t.phase_work.items())},
        "phase_depth": {k: int(v) for k, v in sorted(t.phase_depth.items())},
    }


def _graphs() -> Dict[str, Any]:
    gnm = gnm_random_graph(300, 1200, seed=1, connected=True)
    rgg = random_geometric_graph(300, 0.1, seed=2)
    wgnm = with_random_weights(
        gnm_random_graph(250, 1000, seed=3, connected=True), 1.0, 10.0,
        "uniform", seed=4,
    )
    karate, _ = load_snap(DATA / "karate.snap")
    return {"gnm": gnm, "rgg": rgg, "wgnm": wgnm, "karate": karate}


def _hopset_out(hs: Any) -> Tuple[Any, ...]:
    return hs.eu, hs.ev, hs.ew, hs.kind


def _clustering_out(c: Any) -> Tuple[Any, ...]:
    return c.center, c.parent, c.dist_to_center


def _calls(name: str, g: Any) -> Dict[str, Callable[[PramTracker], Tuple[Any, ...]]]:
    """Entry name -> a call that charges the tracker and returns the
    arrays to hash."""
    unweighted = g.is_unweighted
    calls: Dict[str, Callable[[PramTracker], Tuple[Any, ...]]] = {}

    def sssp(t):
        r = shortest_paths(g, 0, tracker=t)
        return r.dist, r.parent, r.owner, r.buckets

    calls["shortest_paths"] = sssp
    calls["shortest_paths_batch"] = lambda t: (
        shortest_paths_batch(g, [0, 7, 19], tracker=t).dist,
    )
    for method in ("exact", "round") if unweighted else ("exact",):
        calls[f"est_{method}"] = lambda t, m=method: _clustering_out(
            est_cluster(g, 0.2, seed=11, method=m, tracker=t)
        )
        calls[f"hopset_{method}"] = lambda t, m=method: _hopset_out(
            build_hopset(g, PARAMS, seed=12, method=m, tracker=t)
        )
    calls["ldd"] = lambda t: _clustering_out(
        low_diameter_decomposition(g, 0.2, seed=13, tracker=t).clustering
    )
    calls["components"] = lambda t: parallel_connectivity(g, seed=14, tracker=t)
    calls["weighted_spanner"] = lambda t: (
        weighted_spanner(g, 3, seed=15, tracker=t).edge_ids,
    )
    calls["low_stretch_tree"] = lambda t: (
        low_stretch_spanning_tree(g, seed=16, tracker=t).edge_ids,
    )
    calls["baswana_sen"] = lambda t: (baswana_sen_spanner(g, 3, seed=17, tracker=t).edge_ids,)
    if unweighted:
        for k in (2, 3):
            calls[f"spanner_k{k}"] = lambda t, k=k: (
                unweighted_spanner(g, k, seed=18, tracker=t).edge_ids,
            )
    else:
        calls["weighted_hopset"] = lambda t: tuple(
            a
            for sc in build_weighted_hopset(g, PARAMS, seed=19, tracker=t).scales
            for a in (np.asarray([sc.d, sc.c]),) + _hopset_out(sc.hopset)
        )
    if name == "karate":
        calls["limited_hopset"] = lambda t: (
            lambda lh: (lh.eu, lh.ev, lh.ew, lh.rounds)
        )(build_limited_hopset(g, seed=20, tracker=t))
    if name == "gnm":
        calls["ks97_hopset"] = lambda t: _hopset_out(ks97_hopset(g, seed=21, tracker=t))
        calls["cohen_hopset"] = lambda t: _hopset_out(
            cohen_style_hopset(g, seed=22, tracker=t)
        )
        calls["sparsify"] = lambda t: (
            lambda s: (s.graph.edge_u, s.graph.edge_v, s.graph.edge_w, s.sizes)
        )(spanner_sparsify(g, seed=23, tracker=t))
    requirement = {"karate": "conductance:0.1", "gnm": "wellconnected"}.get(name)
    if requirement:
        calls["cluster_tree"] = lambda t: (
            build_cluster_tree(g, requirement, seed=24, tracker=t).signature().encode(),
        )
    if name in ("rgg", "wgnm"):
        calls["churn"] = lambda t: _churn(g, t)
    return calls


def _churn(g: Any, t: PramTracker) -> Tuple[Any, ...]:
    """One update batch through the serving tier: build with a repair
    structure, warm three rows, apply the batch (``apply_batch`` plus
    ``repair_hopset``), then serve the rows again."""
    hs = build_hopset(g, PARAMS, seed=25, tracker=t, record_structure=True)
    server = DistanceServer(hs, cache_rows=8, tracker=t)
    before = server.distances([0, 5, 9])
    w = 1.0 if g.is_unweighted else 2.5
    batch = UpdateBatch.from_tuples(
        inserts=[(0, g.n - 1, w), (3, g.n // 2, w)],
        deletes=[(int(g.edge_u[0]), int(g.edge_v[0]))],
    )
    info = server.apply_updates(batch)
    after = server.distances([0, 5, 9, 11])
    counts = [int(info[k]) for k in sorted(info) if isinstance(info[k], (int, np.integer))]
    return before, after, np.asarray(counts), *_hopset_out(server.hopset)


def compute() -> Dict[str, Any]:
    """Every entry's digest and ledger, keyed ``family/entry``."""
    entries: Dict[str, Any] = {}
    for name, g in _graphs().items():
        entries[f"{name}/graph"] = {"sha256": _digest(g.edge_u, g.edge_v, g.edge_w)}
        for entry, call in _calls(name, g).items():
            t = PramTracker(n=g.n)
            out = call(t)
            entries[f"{name}/{entry}"] = {"sha256": _digest(*out), "ledger": _ledger(t)}
    return {"format": FORMAT, "entries": entries}


def render(golden: Dict[str, Any]) -> str:
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render(compute()))
    print(f"wrote {GOLDEN_PATH}")
