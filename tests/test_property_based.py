"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import UnionFind, from_edges, quotient_graph
from repro.graph.validation import validate_graph
from repro.paths import hop_limited_distances
from repro.paths.dijkstra import dijkstra, dijkstra_scipy
from repro.clustering import est_cluster

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def edge_lists(draw, max_n=12, max_m=30, weighted=False):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    if weighted:
        weights = draw(
            st.lists(
                st.floats(min_value=0.125, max_value=64.0, allow_nan=False),
                min_size=m,
                max_size=m,
            )
        )
    else:
        weights = None
    return n, edges, weights


class TestGraphProperties:
    @SETTINGS
    @given(edge_lists(weighted=True))
    def test_from_edges_always_valid(self, spec):
        n, edges, weights = spec
        g = from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), weights)
        validate_graph(g)
        assert g.m <= len(edges)

    @SETTINGS
    @given(edge_lists())
    def test_degree_sum_is_twice_edges(self, spec):
        n, edges, _ = spec
        g = from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        assert int(np.asarray(g.degree()).sum()) == 2 * g.m

    @SETTINGS
    @given(edge_lists(weighted=True), st.integers(min_value=1, max_value=5))
    def test_quotient_graph_valid_and_smaller(self, spec, groups):
        n, edges, weights = spec
        g = from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), weights)
        labels = np.arange(n) % groups
        q = quotient_graph(labels, g.edge_u, g.edge_v, g.edge_w)
        validate_graph(q.graph)
        assert q.graph.n <= min(n, groups)
        assert q.graph.m <= g.m
        # representative ids are real edge indices with matching weight
        if q.graph.m:
            assert (g.edge_w[q.rep_edge_ids] == q.graph.edge_w).all()


class TestUnionFindProperties:
    @SETTINGS
    @given(
        st.integers(min_value=1, max_value=40),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
    )
    def test_components_match_transitive_closure(self, n, pairs):
        pairs = [(a % n, b % n) for a, b in pairs]
        uf = UnionFind(n)
        for a, b in pairs:
            uf.union(a, b)
        # oracle: networkx-free closure via iterated label propagation
        label = np.arange(n)
        changed = True
        while changed:
            changed = False
            for a, b in pairs:
                lo = min(label[a], label[b])
                if label[a] != lo or label[b] != lo:
                    hi_lab = max(label[a], label[b])
                    label[label == hi_lab] = lo
                    changed = True
        mine = uf.component_labels()
        for a, b in [(i, j) for i in range(n) for j in range(i + 1, n)]:
            assert (label[a] == label[b]) == (mine[a] == mine[b])

    @SETTINGS
    @given(st.integers(min_value=1, max_value=30))
    def test_n_components_decrements_exactly(self, n):
        uf = UnionFind(n)
        merges = 0
        rng = np.random.default_rng(n)
        for _ in range(2 * n):
            a, b = rng.integers(0, n, 2)
            if uf.union(int(a), int(b)):
                merges += 1
        assert uf.n_components == n - merges


class TestPathProperties:
    @SETTINGS
    @given(edge_lists(max_n=10, max_m=25, weighted=True))
    def test_dijkstra_matches_scipy(self, spec):
        n, edges, weights = spec
        g = from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), weights)
        dist, _, _ = dijkstra(g, 0)
        assert np.allclose(dist, dijkstra_scipy(g, 0), equal_nan=True)

    @SETTINGS
    @given(edge_lists(max_n=10, max_m=25, weighted=True), st.integers(1, 12))
    def test_hop_limited_monotone_and_consistent(self, spec, h):
        n, edges, weights = spec
        g = from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), weights)
        csr = (g.indptr, g.indices, g.weights)
        d_h, _, _ = hop_limited_distances(csr, np.array([0]), h)
        d_h1, _, _ = hop_limited_distances(csr, np.array([0]), h + 1)
        d_full = dijkstra_scipy(g, 0)
        assert (d_h1 <= d_h + 1e-12).all()
        assert (d_h >= d_full - 1e-9).all()  # limited never beats optimal

    @SETTINGS
    @given(edge_lists(max_n=10, max_m=25))
    def test_triangle_inequality_of_bfs(self, spec):
        n, edges, _ = spec
        g = from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        from repro.paths import bfs

        dist, parent = bfs(g, 0)
        d = np.where(dist == np.iinfo(np.int64).max, np.inf, dist.astype(float))
        du, dv = d[g.edge_u], d[g.edge_v]
        both = np.isfinite(du) & np.isfinite(dv)
        assert (np.abs(du[both] - dv[both]) <= 1).all()


class TestClusteringProperties:
    @SETTINGS
    @given(
        edge_lists(max_n=12, max_m=30),
        st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_est_partition_invariants(self, spec, beta, seed):
        n, edges, _ = spec
        g = from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        c = est_cluster(g, beta, seed=seed, method="exact")
        # every vertex assigned; centers self-assigned and parentless
        assert (c.center >= 0).all()
        assert (c.center[c.centers] == c.centers).all()
        assert (c.parent[c.centers] == -1).all()
        # tree distance non-negative; zero exactly at centers
        assert (c.dist_to_center >= 0).all()
        center_mask = np.zeros(n, dtype=bool)
        center_mask[c.centers] = True
        assert (c.dist_to_center[center_mask] == 0).all()
        # forest parents stay within the cluster
        child = np.flatnonzero(c.parent >= 0)
        assert (c.center[child] == c.center[c.parent[child]]).all()


class TestSpannerProperties:
    @SETTINGS
    @given(
        st.integers(min_value=6, max_value=14),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_unweighted_spanner_invariants(self, n, k, seed):
        from repro.graph import gnm_random_graph
        from repro.spanners import unweighted_spanner, verify_spanner

        m = min(3 * n, n * (n - 1) // 2)
        g = gnm_random_graph(n, m, seed=seed, connected=m >= n - 1)
        sp = unweighted_spanner(g, k, seed=seed)
        assert sp.size <= g.m
        verify_spanner(g, sp)


class TestHopsetProperties:
    @SETTINGS
    @given(
        st.integers(min_value=4, max_value=9),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_hopset_edges_never_undershoot(self, side, seed):
        from repro.graph import grid_graph
        from repro.hopsets import HopsetParams, build_hopset

        g = grid_graph(side, side)
        hs = build_hopset(
            g,
            HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.1, gamma2=0.5),
            seed=seed,
        )
        hs.verify_edge_weights()
