"""Shortest-path kernels: BFS, weighted BFS, limited Bellman–Ford, Dijkstra.

These are the substrates the paper's constructions consume:

* level-synchronous **parallel BFS** [UY91] — used by the unweighted
  EST clustering and for center-to-all distances inside hopset levels;
* the **bucket engine** (:mod:`repro.paths.engine`) — delta-stepping
  style frontier-vectorized multi-source SSSP, with Dial buckets for
  integer weights; every weighted exact search runs through it;
* **weighted parallel BFS** (bucketed / Dial) — the "weighted parallel
  BFS" of Section 5, whose depth is the number of *distance levels*
  (now a thin integer-mode layer over the engine);
* **h-hop-limited Bellman–Ford** — evaluates ``dist^h_{E ∪ E'}``, i.e.
  the hopset query of Klein–Subramanian [KS97];
* **Dijkstra** — engine front-end; the pure-Python heap loop survives
  as :func:`~repro.paths.dijkstra.dijkstra_reference` (the sequential
  baseline and oracle).
"""

from repro.paths.bfs import bfs, multi_source_bfs, bfs_with_start_times
from repro.paths.engine import (
    BatchShortestPathResult,
    ShortestPathResult,
    set_default_backend,
    shortest_paths,
    shortest_paths_batch,
    sssp,
)
from repro.paths.weighted_bfs import dial_sssp, weighted_bfs_with_start_times
from repro.paths.bellman_ford import (
    ArcSet,
    arcs_from_graph,
    combine_arcs,
    hop_limited_distances,
)
from repro.paths.dijkstra import (
    dijkstra,
    dijkstra_reference,
    dijkstra_scipy,
    st_distance,
)
from repro.paths.trees import extract_path, tree_depths, verify_sssp_tree

__all__ = [
    "bfs",
    "multi_source_bfs",
    "bfs_with_start_times",
    "BatchShortestPathResult",
    "ShortestPathResult",
    "shortest_paths",
    "shortest_paths_batch",
    "sssp",
    "set_default_backend",
    "dial_sssp",
    "weighted_bfs_with_start_times",
    "ArcSet",
    "arcs_from_graph",
    "combine_arcs",
    "hop_limited_distances",
    "dijkstra",
    "dijkstra_reference",
    "dijkstra_scipy",
    "st_distance",
    "extract_path",
    "tree_depths",
    "verify_sssp_tree",
]
