"""Correctness oracles for the engine, the level-synchronous builders,
the single-graph EST race and cut, the h-hop query, and the unweighted
spanner.

The product builders run the paper's parallel recursions level by
level.  The oracles here run the same recursions one subproblem at a
time, consuming the same spawned RNG streams, so for a fixed seed they
must emit the same edge sets.  :func:`check_level_invariants` checks a
hopset's per-level statistics against Section 4's schedule, and
:func:`dense_hop_distances` is the dense synchronous Bellman–Ford the
frontier h-hop kernel must match label for label, and
:func:`first_of_runs_lexsort` is the comparison-sort dedup the radix
``first_of_runs`` must match index for index, and
:func:`bucket_sssp_batch_reference` the per-arc relaxation round the
numpy bucket kernel must match distance for distance and ledger for
ledger.
:func:`est_cluster_reference` and :func:`induced_subgraph_reference`
are the single-graph EST race and induced-subgraph cut that
``est_cluster`` and ``induced_subgraph`` ran before they became the
one-block cases of the forest primitives; both must match output for
output, and the depth-first oracles cluster and cut with them.  The
reference race finds each forest edge's id with :func:`edge_id_lookup`
(a binary search over the edge keys), where the product reads it off
the arc that won the race, and its BFS race is
:func:`bfs_with_start_times_reference`, the lexsort wake order that
the product's counting-sort race must match array for array.
:func:`boundary_edge_ids_reference` is the boundary pass over all
``2m`` arcs that the product's pass over the cut edges must match id
for id; the weighted spanner oracle keeps boundary edges with it.
:func:`distributed_unweighted_spanner` is Section 2.2's message-passing
port of Algorithm 2 on the synchronous simulator :class:`SyncNetwork`;
under shared shifts it keeps ``unweighted_spanner``'s edges.
:func:`dijkstra_reference` is the sequential heapq Dijkstra, with its
own parents and owners, and :func:`engine_kernel` runs the bucket
engine on it as a second kernel.  Tests and the benches
(``benchmarks/bench_engine.py``, ``benchmarks/bench_hopset.py``,
``benchmarks/bench_spanner.py``, ``benchmarks/bench_serve.py``,
``benchmarks/bench_speedup_distributed.py``) import them; nothing under
``src/`` may.
"""

from .bellman_ford import ArcSet, arcs_from_graph, combine_arcs, dense_hop_distances
from .bfs import bfs_with_start_times_reference
from .bucket import bucket_sssp_batch_reference
from .dedup import first_of_runs_lexsort
from .dijkstra import KERNELS, dijkstra_reference, engine_kernel
from .distributed import distributed_unweighted_spanner
from .est import edge_id_lookup, est_cluster_reference
from .hopsets import build_hopset_recursive
from .levels import check_level_invariants
from .network import NodeProgram, SyncNetwork
from .spanners import boundary_edge_ids_reference, weighted_spanner_recursive
from .subgraph import induced_subgraph_reference

__all__ = [
    "KERNELS",
    "ArcSet",
    "NodeProgram",
    "SyncNetwork",
    "arcs_from_graph",
    "bfs_with_start_times_reference",
    "boundary_edge_ids_reference",
    "bucket_sssp_batch_reference",
    "build_hopset_recursive",
    "check_level_invariants",
    "combine_arcs",
    "dense_hop_distances",
    "dijkstra_reference",
    "distributed_unweighted_spanner",
    "edge_id_lookup",
    "engine_kernel",
    "est_cluster_reference",
    "first_of_runs_lexsort",
    "induced_subgraph_reference",
    "weighted_spanner_recursive",
]
