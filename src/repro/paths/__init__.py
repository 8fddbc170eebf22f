"""Shortest-path kernels: BFS, weighted BFS, hop-limited search, Dijkstra.

These are the substrates the paper's constructions consume:

* level-synchronous **parallel BFS** [UY91] — used by the unweighted
  EST clustering and for center-to-all distances inside hopset levels;
* the **bucket engine** (:mod:`repro.paths.engine`) — delta-stepping
  style frontier-vectorized multi-source SSSP, with Dial buckets for
  integer weights; every weighted exact search runs through it;
* **weighted parallel BFS** (bucketed / Dial) — the "weighted parallel
  BFS" of Section 5, whose depth is the number of *distance levels*:
  :func:`dial_sssp`, a thin integer-mode layer over the engine (the
  EST races call the engine's Dial mode directly);
* **h-hop-limited search** — :func:`hop_limited_distances`, the one
  front door for ``dist^h_{E ∪ E'}`` (the hopset query of
  Klein–Subramanian [KS97]): synchronous Bellman–Ford on the frontier
  kernel, over any CSR triple (a hopset's union CSR or ``G``'s own);
* **Dijkstra** — :func:`dijkstra` is an engine front-end and
  :func:`dijkstra_scipy` the external oracle; the sequential heap
  Dijkstra of Theorem 1.2's work comparison is a test oracle
  (``tests/oracles/dijkstra.py``).
"""

from repro.paths.bfs import bfs, multi_source_bfs, bfs_with_start_times
from repro.paths.engine import (
    BatchShortestPathResult,
    ShortestPathResult,
    shortest_paths,
    shortest_paths_batch,
)
from repro.paths.weighted_bfs import dial_sssp
from repro.paths.bellman_ford import hop_limited_distances
from repro.paths.dijkstra import dijkstra, dijkstra_scipy, st_distance
from repro.paths.trees import extract_path, tree_depths, verify_sssp_tree

__all__ = [
    "bfs",
    "multi_source_bfs",
    "bfs_with_start_times",
    "BatchShortestPathResult",
    "ShortestPathResult",
    "shortest_paths",
    "shortest_paths_batch",
    "dial_sssp",
    "hop_limited_distances",
    "dijkstra",
    "dijkstra_scipy",
    "st_distance",
    "extract_path",
    "tree_depths",
    "verify_sssp_tree",
]
