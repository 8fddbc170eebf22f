"""Work-stack driver: decompose → validate → recluster, CM-style.

The first non-synthetic end-to-end workload of the engine.  Modeled on
the connectivity-modifier main loop: a LIFO work stack of cluster-tree
nodes, each expansion running EST (or LDD) clustering on the node's
induced subgraph, every resulting cluster validated against a pluggable
:mod:`requirement <repro.ctree.requirements>`; failures are pushed back
for recursive reclustering, and the finished hierarchy is emitted as a
:class:`~repro.ctree.tree.ClusterTree` with per-node stats.  An
expansion is the one-block case of the level-synchronous builders'
primitives: :func:`~repro.graph.builders.induced_subgraph` is the
one-group forest cut and :func:`~repro.clustering.est.est_cluster` the
one-block forest race.

Guarantees:

* **Termination with satisfied leaves.**  An expansion that returns a
  single cluster covering the whole node retries with doubled ``beta``
  (EST at large ``beta`` degenerates to singletons), and after
  ``MAX_BETA_DOUBLINGS`` (60) the split is forced to singletons outright —
  so failing clusters strictly shrink, and size-1 clusters satisfy
  every built-in requirement vacuously.  Only explicit ``min_size`` /
  ``max_depth`` cut-offs can leave an unsatisfied (``forced``) leaf.
* **Determinism.**  One generator drives every stochastic step, the
  stack order is deterministic, and children are created in compact
  label order — the same seed always yields the same tree.
* **Durability.**  With ``checkpoint_path=`` the complete driver state
  (finished nodes, pending stack, RNG cursor) is serialized through
  :mod:`repro.checkpoint` every ``CHECKPOINT_EVERY`` (8) expansions; a
  killed run resumes to the *bit-identical* tree of the uninterrupted
  build, and a checkpoint from different inputs is refused by
  fingerprint.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.checkpoint import BuildCheckpoint, CheckpointCut, State, rng_state
from repro.clustering.est import est_cluster
from repro.clustering.ldd import low_diameter_decomposition
from repro.ctree.requirements import ClusterRequirement, NodeStats, parse_requirement
from repro.ctree.tree import ClusterTree, ClusterTreeNode
from repro.errors import ParameterError
from repro.graph.builders import induced_subgraph
from repro.graph.components import connected_components
from repro.graph.csr import CSRGraph
from repro.graph.dedup import rows_by_value
from repro.pram.tracker import PramTracker, null_tracker
from repro.rng import SeedLike, resolve_rng

CLUSTERERS = ("est", "ldd")
CHECKPOINT_EVERY = 8  # expansions between work-stack checkpoints
MAX_BETA_DOUBLINGS = 60  # beta retries before a split is forced to singletons


def _conductance_from(cut: np.ndarray, vol: np.ndarray, two_m: int) -> np.ndarray:
    """Vectorized ``cut / min(vol, 2m - vol)`` with 0/0 -> 0."""
    denom = np.minimum(vol, two_m - vol)
    out = np.zeros(cut.shape[0], dtype=np.float64)
    ok = denom > 0
    out[ok] = cut[ok] / denom[ok]
    return out


def _children_stats(
    g: CSRGraph, sub: CSRGraph, vmap: np.ndarray, labels: np.ndarray, k: int
) -> List[NodeStats]:
    """Stats of every cluster of one split, in compact label order.

    One vectorized pass over the parent's induced subgraph: a cluster's
    internal edges in ``G`` are exactly the same-label edges of ``sub``
    (clusters are subsets of the parent's vertex set), so its ``G``-cut
    is ``vol_G - 2 * internal_edges`` without touching the full edge
    list again.  Clusters come out of the EST race spanning-tree
    connected by construction, which the stats record as fact.
    """
    gdeg = np.asarray(g.degree())
    two_m = 2 * g.m
    vol = np.bincount(labels, weights=gdeg[vmap], minlength=k).astype(np.int64)

    # per-vertex internal degree: arcs whose endpoints share a label
    min_int = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
    int_edges = np.zeros(k, dtype=np.int64)
    if sub.num_arcs:
        src = sub.arc_sources()
        same = labels[src] == labels[sub.indices]
        internal_deg = np.bincount(src[same], minlength=sub.n)
        np.minimum.at(min_int, labels, internal_deg)
        same_e = labels[sub.edge_u] == labels[sub.edge_v]
        int_edges = np.bincount(
            labels[sub.edge_u[same_e]], minlength=k
        ).astype(np.int64)
    else:
        np.minimum.at(min_int, labels, np.zeros(sub.n, dtype=np.int64))
    cut = vol - 2 * int_edges
    cond = _conductance_from(cut, vol, two_m)
    sizes = np.bincount(labels, minlength=k)
    return [
        NodeStats(
            size=int(sizes[j]),
            cut=int(cut[j]),
            volume=int(vol[j]),
            internal_edges=int(int_edges[j]),
            min_internal_degree=int(min_int[j]),
            conductance=float(cond[j]),
            connected=True,
        )
        for j in range(k)
    ]


def _root_stats(g: CSRGraph) -> NodeStats:
    deg = np.asarray(g.degree())
    ncc, _ = connected_components(g)
    return NodeStats(
        size=g.n,
        cut=0,
        volume=int(2 * g.m),
        internal_edges=g.m,
        min_internal_degree=int(deg.min()) if g.n else 0,
        conductance=0.0,
        connected=ncc <= 1,
    )


def _split_labels(
    sub: CSRGraph,
    beta: float,
    rng: np.random.Generator,
    clusterer: str,
    method: str,
    tracker: PramTracker,
) -> Tuple[np.ndarray, int, float]:
    """Cluster ``sub`` into >= 2 pieces (or singletons), deterministically.

    Returns ``(labels, k, beta_used)``.  A run that returns one cluster
    covering a multi-vertex node makes no progress, so ``beta`` doubles
    and the race reruns (consuming the RNG stream deterministically);
    past ``MAX_BETA_DOUBLINGS`` the split is forced to singletons.
    """
    beta_t = float(beta)
    for _ in range(MAX_BETA_DOUBLINGS + 1):
        if clusterer == "est":
            c = est_cluster(sub, beta_t, seed=rng, method=method, tracker=tracker)
        else:
            c = low_diameter_decomposition(
                sub, beta_t, seed=rng, method=method, tracker=tracker
            ).clustering
        if c.num_clusters > 1 or sub.n <= 1:
            return c.labels, c.num_clusters, beta_t
        beta_t *= 2
    # unreachable in practice: EST at huge beta is all-singletons
    return (
        np.arange(sub.n, dtype=np.int64),
        sub.n,
        beta_t,
    )


def _driver_state(
    nodes: Dict[int, ClusterTreeNode], stack: List[int], next_id: int
) -> State:
    """A cluster-tree checkpoint: every node so far and the work stack."""
    order = sorted(nodes)
    sizes = np.array([nodes[i].size for i in order], dtype=np.int64)
    ptr = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    cat = (
        np.concatenate([nodes[i].vertices for i in order])
        if order
        else np.empty(0, np.int64)
    )
    arrays = {
        "node_order": np.asarray(order, dtype=np.int64),
        "vertices_ptr": ptr,
        "vertices_cat": cat,
        "stack": np.asarray(stack, dtype=np.int64),
    }
    nodes_meta = [nodes[i].to_dict(include_vertices=False) for i in order]
    return arrays, {"next_id": next_id, "nodes": nodes_meta}


def _load_checkpoint(
    saved: BuildCheckpoint,
) -> Tuple[Dict[int, ClusterTreeNode], List[int], int, int, np.random.Generator]:
    order = saved.arrays["node_order"]
    ptr = saved.arrays["vertices_ptr"]
    cat = saved.arrays["vertices_cat"]
    nodes: Dict[int, ClusterTreeNode] = {}
    for j, d in enumerate(saved.scalars["nodes"]):
        nd = ClusterTreeNode.from_dict(d)
        nd.vertices = cat[ptr[j] : ptr[j + 1]].astype(np.int64, copy=True)
        nodes[int(order[j])] = nd
    stack = [int(i) for i in saved.arrays["stack"]]
    rng = saved.generators()[0]
    return nodes, stack, int(saved.scalars["next_id"]), int(saved.level), rng


def build_cluster_tree(
    g: CSRGraph,
    requirement: Union[str, ClusterRequirement] = "wellconnected",
    *,
    clusterer: str = "est",
    beta: float = 0.25,
    seed: SeedLike = None,
    min_size: int = 1,
    max_depth: Optional[int] = None,
    method: str = "auto",
    tracker: Optional[PramTracker] = None,
    checkpoint_path: Optional[str] = None,
) -> ClusterTree:
    """Decompose ``g`` into a validated cluster hierarchy.

    Parameters
    ----------
    requirement:
        A :class:`~repro.ctree.requirements.ClusterRequirement` or a
        spec string (``"conductance:0.5"``, ``"degree:2"``,
        ``"wellconnected[:SCALE]"``).  Every cluster the driver emits is
        judged against it; failures recluster recursively.
    clusterer:
        ``"est"`` (one EST race per expansion) or ``"ldd"`` (the
        certified low-diameter wrapper, with its internal retry loop).
    beta:
        Starting decomposition parameter; each node that refuses to
        split doubles it locally.
    min_size / max_depth:
        Optional cut-offs: clusters at or below ``min_size`` (or at
        ``max_depth``) become leaves even when unsatisfied, flagged
        ``forced``.  With the defaults every leaf satisfies the
        requirement (singletons pass vacuously).
    tracker:
        Charged by every EST race, as in
        :func:`repro.clustering.est.est_cluster`.
    checkpoint_path:
        Work-stack durability via :mod:`repro.checkpoint`; see the
        module docstring.

    Returns the finished :class:`ClusterTree`; the root is always
    decomposed (it is the input graph, not a cluster), so the tree has
    at least two nodes whenever ``g.n > max(1, min_size)``.
    """
    req: ClusterRequirement = parse_requirement(requirement)
    if clusterer not in CLUSTERERS:
        raise ParameterError(f"unknown clusterer {clusterer!r} (expected est|ldd)")
    if min_size < 1:
        raise ParameterError(f"min_size must be >= 1, got {min_size}")
    if max_depth is not None and max_depth < 1:
        raise ParameterError(f"max_depth must be >= 1, got {max_depth}")
    tracker = tracker or null_tracker()
    rng = resolve_rng(seed)

    params = {
        "beta": float(beta),
        "min_size": int(min_size),
        "max_depth": max_depth,
        "method": method,
        "clusterer": clusterer,
    }

    # the entry RNG state binds the checkpoint to the seed, exactly like
    # the batched builders: resuming under a different seed must refuse
    cut = CheckpointCut(
        checkpoint_path, "ctree", g, req.spec, clusterer, beta, min_size,
        max_depth, method, rng_state(rng),
    )
    saved = cut.resume()
    if saved is not None:
        nodes, stack, next_id, processed, rng = _load_checkpoint(saved)
    else:
        root_stats = _root_stats(g)
        root = ClusterTreeNode(
            id=0, parent=-1, level=0,
            vertices=np.arange(g.n, dtype=np.int64),
            stats=root_stats, satisfied=req.check(root_stats),
        )
        nodes = {0: root}
        next_id = 1
        processed = 0
        # the root always expands — it is the input, not a cluster —
        # unless it is too small to split at all
        stack = [0] if g.n > max(1, min_size) else []

    while stack:
        if processed and processed % CHECKPOINT_EVERY == 0:
            cut.save(processed, [rng], partial(_driver_state, nodes, stack, next_id))
        nid = stack.pop()
        node = nodes[nid]
        t0 = time.perf_counter()
        sub, vmap = induced_subgraph(g, node.vertices)
        labels, k, beta_used = _split_labels(sub, beta, rng, clusterer, method, tracker)
        stats = _children_stats(g, sub, vmap, labels, k)
        to_push = []
        for j, rows in enumerate(rows_by_value(labels, k)):
            child_vertices = vmap[rows]
            satisfied = req.check(stats[j])
            child = ClusterTreeNode(
                id=next_id, parent=nid, level=node.level + 1,
                vertices=np.asarray(child_vertices, dtype=np.int64),
                stats=stats[j], satisfied=satisfied,
            )
            nodes[next_id] = child
            node.children.append(next_id)
            if not satisfied:
                at_depth = max_depth is not None and child.level >= max_depth
                if child.size <= min_size or at_depth:
                    child.forced = True
                else:
                    to_push.append(next_id)
            next_id += 1
        # reversed push => children are expanded in label order (LIFO)
        stack.extend(reversed(to_push))
        node.beta_split = beta_used
        node.runtime_s = time.perf_counter() - t0
        processed += 1

    tree = ClusterTree(
        graph_n=g.n, graph_m=g.m, requirement=req.spec,
        clusterer=clusterer, params=params, nodes=nodes, root=0,
    )
    cut.clear()
    return tree
