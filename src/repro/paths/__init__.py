"""Shortest-path kernels: BFS, the bucket engine, hop-limited search.

These are the substrates the paper's constructions consume:

* level-synchronous **parallel BFS** [UY91] — used by the unweighted
  EST clustering and for center-to-all distances inside hopset levels;
* the **bucket engine** (:mod:`repro.paths.engine`) — delta-stepping
  style frontier-vectorized multi-source SSSP; every weighted exact
  search is a :func:`shortest_paths` call, which returns distances;
  :func:`shortest_path_forest` derives a search's parents and owners
  from them when a caller asks.  Section 5's **weighted parallel BFS**
  (bucketed / Dial), whose depth is the number of *distance levels*,
  is the engine's Dial mode: an ``int64`` ``weights=`` override at
  ``delta=1``;
* **h-hop-limited search** — :func:`hop_limited_distances`, the one
  front door for ``dist^h_{E ∪ E'}`` (the hopset query of
  Klein–Subramanian [KS97]): synchronous Bellman–Ford on the frontier
  kernel, over any CSR triple (a hopset's union CSR or ``G``'s own);
* **Dijkstra** — :func:`dijkstra_scipy` is the external oracle; the
  sequential heap Dijkstra of Theorem 1.2's work comparison is a test
  oracle (``tests/oracles/dijkstra.py``).
"""

from repro.paths.bfs import bfs, bfs_with_start_times
from repro.paths.engine import ShortestPathResult, shortest_paths, shortest_paths_batch
from repro.paths.bellman_ford import hop_limited_distances
from repro.paths.dijkstra import dijkstra_scipy
from repro.paths.trees import (
    extract_path,
    shortest_path_forest,
    tree_depths,
    verify_sssp_tree,
)

__all__ = [
    "bfs",
    "bfs_with_start_times",
    "ShortestPathResult",
    "shortest_paths",
    "shortest_paths_batch",
    "hop_limited_distances",
    "dijkstra_scipy",
    "extract_path",
    "shortest_path_forest",
    "tree_depths",
    "verify_sssp_tree",
]
