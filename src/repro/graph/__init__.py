"""Graph substrate: CSR graphs, generators, contraction, components.

This subpackage is the foundation every algorithm in the reproduction
builds on.  The central type is :class:`~repro.graph.csr.CSRGraph`, an
immutable numpy-backed compressed-sparse-row adjacency structure with
edge-id tracking (needed by the spanner algorithms, which must report
*original* edge ids through arbitrary chains of contractions).
"""

from repro.graph.csr import CSRGraph
from repro.graph.builders import (
    SubgraphForest,
    from_edges,
    induced_subgraph,
    induced_subgraph_forest,
)
from repro.graph.unionfind import UnionFind
from repro.graph.quotient import (
    quotient_graph,
    quotient_forest,
    QuotientResult,
    QuotientForestResult,
)
from repro.graph.components import connected_components, is_connected, largest_component
from repro.graph.parallel_connectivity import parallel_connectivity, edges_decay_trajectory
from repro.graph.metrics import (
    conductance,
    cut_size,
    volume,
)
from repro.graph.io import (
    SnapStats,
    load_snap,
    read_snap_header,
)
from repro.graph.storage import (
    IngestStats,
    ingest_edge_chunks,
    ingest_edgelist,
    ingest_edgelist_binary,
    load_store,
    save_store,
)
from repro.graph.generators import (
    gnm_random_graph,
    grid_graph,
    torus_graph,
    path_graph,
    cycle_graph,
    star_graph,
    complete_graph,
    random_tree,
    barabasi_albert_graph,
    watts_strogatz_graph,
    random_geometric_graph,
    with_random_weights,
    hard_weight_graph,
)

__all__ = [
    "CSRGraph",
    "from_edges",
    "induced_subgraph",
    "induced_subgraph_forest",
    "SubgraphForest",
    "UnionFind",
    "quotient_graph",
    "quotient_forest",
    "QuotientResult",
    "QuotientForestResult",
    "connected_components",
    "is_connected",
    "largest_component",
    "parallel_connectivity",
    "edges_decay_trajectory",
    "conductance",
    "cut_size",
    "volume",
    "SnapStats",
    "load_snap",
    "read_snap_header",
    "gnm_random_graph",
    "grid_graph",
    "torus_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "random_tree",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "random_geometric_graph",
    "with_random_weights",
    "hard_weight_graph",
    "IngestStats",
    "ingest_edge_chunks",
    "ingest_edgelist",
    "ingest_edgelist_binary",
    "load_store",
    "save_store",
]
