"""Second property-based round: composition laws and application invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import from_edges, quotient_graph
from repro.rng import resolve_rng, spawn

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def connected_graphs(draw, max_n=14):
    """Random connected graph: a random tree plus extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    edges = [(i, draw(st.integers(0, i - 1)) if i > 1 else 0) for i in range(1, n)]
    edges.extend(extra)
    weighted = draw(st.booleans())
    if weighted:
        w = [draw(st.floats(min_value=0.5, max_value=32.0, allow_nan=False)) for _ in edges]
    else:
        w = None
    return from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), w)


class TestQuotientComposition:
    @SETTINGS
    @given(connected_graphs(), st.integers(2, 4), st.integers(2, 3))
    def test_quotient_of_quotient_is_composed_quotient(self, g, p, q):
        lab1 = np.arange(g.n) % p
        r1 = quotient_graph(lab1, g.edge_u, g.edge_v, g.edge_w)
        lab2 = np.arange(r1.graph.n) % q
        r2 = quotient_graph(lab2, r1.graph.edge_u, r1.graph.edge_v, r1.graph.edge_w)
        # direct composed contraction
        composed = lab2[r1.vertex_map]
        rd = quotient_graph(composed, g.edge_u, g.edge_v, g.edge_w)
        assert rd.graph.n == r2.graph.n
        assert rd.graph.m == r2.graph.m
        assert np.allclose(np.sort(rd.graph.edge_w), np.sort(r2.graph.edge_w))


class TestApplications:
    @SETTINGS
    @given(connected_graphs(), st.integers(0, 10**6))
    def test_connectivity_always_matches_oracle(self, g, seed):
        from repro.graph import connected_components
        from repro.graph.parallel_connectivity import parallel_connectivity

        ncc, labels, _ = parallel_connectivity(g, beta=0.3, seed=seed)
        ncc_ref, lab_ref = connected_components(g)
        assert ncc == ncc_ref
        for comp in range(ncc_ref):
            members = np.flatnonzero(lab_ref == comp)
            assert np.unique(labels[members]).shape[0] == 1

    @SETTINGS
    @given(connected_graphs(max_n=12), st.integers(0, 10**6))
    def test_lsst_always_spanning_tree(self, g, seed):
        from repro.graph import connected_components
        from repro.spanners.low_stretch_tree import low_stretch_spanning_tree

        t = low_stretch_spanning_tree(g, k=3, seed=seed)
        ncc, _ = connected_components(g)
        assert t.size == g.n - ncc
        ncc_t, _ = connected_components(t.subgraph())
        assert ncc_t == ncc

    @SETTINGS
    @given(connected_graphs(max_n=12), st.integers(0, 10**6))
    def test_sparsify_preserves_components(self, g, seed):
        from repro.graph import connected_components
        from repro.spanners.sparsify import spanner_sparsify

        res = spanner_sparsify(g, k=2, bundle=1, rounds=2, seed=seed)
        ncc_g, _ = connected_components(g)
        ncc_h, _ = connected_components(res.graph)
        assert ncc_g == ncc_h

    @SETTINGS
    @given(connected_graphs(max_n=12), st.floats(0.05, 2.0), st.integers(0, 10**6))
    def test_ldd_partition_and_certificate(self, g, beta, seed):
        from repro.clustering.ldd import low_diameter_decomposition

        d = low_diameter_decomposition(g, beta, seed=seed, method="exact")
        d.validate()
        total = np.concatenate(d.pieces())
        assert np.array_equal(np.sort(total), np.arange(g.n))


class TestRounding:
    @SETTINGS
    @given(
        connected_graphs(max_n=12),
        st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
    )
    def test_rounding_bounds_always_hold(self, g, d, k, zeta):
        from repro.hopsets.rounding import round_weights

        r = round_weights(g, d=d, k=k, zeta=zeta)
        # integers >= 1
        assert (r.graph.edge_w >= 1).all()
        assert np.array_equal(r.graph.edge_w, np.round(r.graph.edge_w))
        # never undershoots, per-edge overshoot <= one granule
        up = r.w_hat * r.graph.edge_w
        assert (up >= g.edge_w - 1e-9).all()
        assert (up <= g.edge_w + r.w_hat + 1e-9).all()


class TestRngSpawn:
    @SETTINGS
    @given(st.integers(0, 10**6), st.integers(1, 8))
    def test_spawn_deterministic_and_distinct(self, seed, n):
        a = spawn(resolve_rng(seed), n)
        b = spawn(resolve_rng(seed), n)
        draws_a = [r.integers(0, 2**32) for r in a]
        draws_b = [r.integers(0, 2**32) for r in b]
        assert draws_a == draws_b
        if n >= 2:
            # children differ from each other (overwhelmingly)
            assert len(set(int(x) for x in draws_a)) >= 2 or n < 2
