"""repro — reproduction of *Improved Parallel Algorithms for Spanners
and Hopsets* (Miller, Peng, Vladu, Xu; SPAA 2015).

Quickstart::

    import repro

    g = repro.gnm_random_graph(2000, 10000, seed=0, connected=True)
    spanner = repro.unweighted_spanner(g, k=3, seed=1)
    hopset = repro.build_hopset(g, seed=2)
    dist, hops = repro.hopset_distance(hopset, 0, 42)

Subpackage layout:

========================  ==============================================
``repro.graph``           CSR graphs, generators, quotient/contraction,
                          out-of-core stores
``repro.pram``            PRAM work/depth cost model
``repro.kernels``         numpy bucket-relaxation and h-hop kernels
``repro.paths``           BFS / weighted BFS / Bellman–Ford / the bucket
                          engine behind every weighted search
``repro.clustering``      exponential start time clustering (Alg. 1)
``repro.ctree``           validated cluster trees on real graphs
``repro.spanners``        Algorithms 2–3 + Baswana–Sen/greedy baselines
``repro.hopsets``         Algorithm 4, Section 5, Appendices B–C,
                          KS97/Cohen-style baselines
``repro.serve``           exact distance serving with a source-row cache
``repro.dynamic``         update batches and localized hopset repair
``repro.analysis``        stretch/hop statistics, scaling fits, theory
``repro.exp``             table rendering and named workloads
========================  ==============================================
"""

__version__ = "1.0.0"

# graph substrate
from repro.graph import (
    CSRGraph,
    from_edges,
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
    connected_components,
    is_connected,
    conductance,
    load_snap,
)

# cluster trees on real graphs
from repro.ctree import (
    ClusterTree,
    build_cluster_tree,
    parse_requirement,
)

# cost model
from repro.pram import PramTracker, log_star

# clustering
from repro.clustering import (
    est_cluster,
    Clustering,
    low_diameter_decomposition,
    LowDiameterDecomposition,
)

# spanners
from repro.spanners import (
    unweighted_spanner,
    weighted_spanner,
    baswana_sen_spanner,
    greedy_spanner,
    verify_spanner,
    max_edge_stretch,
    SpannerResult,
    spanner_sparsify,
)

# hopsets
from repro.hopsets import (
    HopsetParams,
    HopsetResult,
    build_hopset,
    build_weighted_hopset,
    build_weight_scales,
    build_limited_hopset,
    hopset_distance,
    exact_distance,
    ks97_hopset,
    cohen_style_hopset,
    suggested_hop_bound,
)

__all__ = [
    "__version__",
    "CSRGraph",
    "from_edges",
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
    "connected_components",
    "is_connected",
    "conductance",
    "load_snap",
    "ClusterTree",
    "build_cluster_tree",
    "parse_requirement",
    "PramTracker",
    "log_star",
    "est_cluster",
    "Clustering",
    "low_diameter_decomposition",
    "LowDiameterDecomposition",
    "unweighted_spanner",
    "weighted_spanner",
    "baswana_sen_spanner",
    "greedy_spanner",
    "verify_spanner",
    "max_edge_stretch",
    "SpannerResult",
    "HopsetParams",
    "HopsetResult",
    "build_hopset",
    "build_weighted_hopset",
    "build_weight_scales",
    "build_limited_hopset",
    "hopset_distance",
    "exact_distance",
    "ks97_hopset",
    "cohen_style_hopset",
    "spanner_sparsify",
    "suggested_hop_bound",
]
