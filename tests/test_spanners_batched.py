"""Seeded equivalence between the weighted spanner and its per-group oracle.

The level-synchronous weighted spanner is a *re-scheduling* of the
sequential per-group Algorithm 3 loop, not a different algorithm: for
any fixed seed it must emit exactly the edge set the per-group oracle
(``tests/oracles``) emits, on every weight regime, stretch parameter,
EST method and engine kernel.  These tests pin that — property-based
over random weighted graphs, with the stretch bound verified on every
generated instance — plus the forest primitives the pipeline is built
on (:func:`repro.graph.quotient.quotient_forest`) and cross-kernel
equality of the spanner.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import (
    from_edges,
    gnm_random_graph,
    quotient_forest,
    quotient_graph,
    with_random_weights,
)
from repro.pram import PramTracker
from repro.spanners import verify_spanner, weighted_spanner
from repro.spanners.unweighted import unweighted_spanner

from oracles import KERNELS, edge_id_lookup, engine_kernel, weighted_spanner_recursive

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def weighted_graphs(draw):
    """A connected weighted graph across regimes: int / narrow / wide /
    deep float.  The deep regime's 60 buckets give a group up to 20
    contracted levels (15 at ``k = 3``), so the spanner's cluster-root
    hooking runs many rounds against the oracle's ``UnionFind``."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n = draw(st.integers(min_value=5, max_value=90))
    m = min(draw(st.integers(min_value=n, max_value=5 * n)), n * (n - 1) // 2)
    regime = draw(st.sampled_from(["integer", "narrow", "wide", "deep"]))
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    if regime == "integer":
        return with_random_weights(g, 1, 50, "integer", seed=seed + 1)
    if regime == "narrow":
        return with_random_weights(g, 1.0, 8.0, "loguniform", seed=seed + 1)
    if regime == "wide":
        return with_random_weights(g, 1.0, 2.0**24, "loguniform", seed=seed + 1)
    return with_random_weights(g, 1.0, 2.0**60, "loguniform", seed=seed + 1)


def both(g, seed, **kw):
    rec = weighted_spanner_recursive(g, seed=seed, **kw)
    bat = weighted_spanner(g, seed=seed, **kw)
    return rec, bat


class TestSeededEquivalence:
    @given(g=weighted_graphs(), k=st.sampled_from([2.0, 4.0, 9.0]),
           seed=st.integers(min_value=0, max_value=2**16))
    @SETTINGS
    def test_identical_edge_sets_and_stretch(self, g, k, seed):
        rec, bat = both(g, seed, k=k)
        assert np.array_equal(rec.edge_ids, bat.edge_ids)
        # every generated instance also satisfies the certified bound
        verify_spanner(g, bat)

    @given(g=weighted_graphs(), seed=st.integers(min_value=0, max_value=2**16),
           method=st.sampled_from(["round", "exact"]))
    @SETTINGS
    def test_methods_agree_across_strategies(self, g, seed, method):
        rec, bat = both(g, seed, k=3.0, method=method)
        assert np.array_equal(rec.edge_ids, bat.edge_ids)

    @given(g=weighted_graphs(), seed=st.integers(min_value=0, max_value=2**16))
    @SETTINGS
    def test_workers_do_not_change_the_spanner(self, g, seed):
        # weighted_spanner keeps an unused workers= for the repository
        # benchmark (ROADMAP item 10(d)); it must change nothing
        one = weighted_spanner(g, 4.0, seed=seed, method="exact", workers=1)
        four = weighted_spanner(g, 4.0, seed=seed, method="exact", workers=4)
        assert np.array_equal(one.edge_ids, four.edge_ids)
        rec = weighted_spanner_recursive(g, 4.0, seed=seed, method="exact")
        assert np.array_equal(one.edge_ids, rec.edge_ids)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @SETTINGS
    def test_grouping_ablation_equivalent(self, seed):
        g = gnm_random_graph(60, 240, seed=seed, connected=True)
        gw = with_random_weights(g, 1.0, 2.0**12, "loguniform", seed=seed + 1)
        rec, bat = both(gw, seed, k=4.0, grouping=False)
        assert np.array_equal(rec.edge_ids, bat.edge_ids)
        verify_spanner(gw, bat)

    def test_disconnected_graph(self):
        g = gnm_random_graph(150, 300, seed=31)  # typically several components
        gw = with_random_weights(g, 1.0, 200.0, "loguniform", seed=32)
        rec, bat = both(gw, 7, k=3.0)
        assert np.array_equal(rec.edge_ids, bat.edge_ids)

    def test_unweighted_input_single_bucket(self, small_gnm):
        rec, bat = both(small_gnm, 5, k=3.0)
        assert np.array_equal(rec.edge_ids, bat.edge_ids)

    def test_empty_and_tiny_graphs(self):
        for g in (from_edges(4, []), from_edges(2, [(0, 1)], [3.5])):
            rec, bat = both(g, 1, k=2.0)
            assert np.array_equal(rec.edge_ids, bat.edge_ids)


class TestCrossBackend:
    """Every engine kernel must emit the same spanner for the same seed.

    Spanner forests come from race *parents*, which a kernel's own
    claim order would pin only when shortest paths are unique — on the
    spanners' uniform-weight quotient graphs equal-length paths are
    everywhere, so the exact-mode cluster forests are derived from the
    race's distances alone
    (:func:`repro.paths.trees.shortest_path_forest`), which makes them
    kernel-independent; these tests pin the resulting contract.  The
    heapq ``reference`` oracle kernel is excluded from ledger equality
    by design — it charges a synthetic
    ``2m + n``-per-search, one-round-per-bucket estimate instead of
    simulating the bucket schedule (see
    ``oracles.dijkstra.reference_bucket_sssp_batch``).
    """

    def _build(self, g, strategy, unweighted=False):
        t = PramTracker(n=g.n)
        if unweighted:
            build = unweighted_spanner
        elif strategy == "batched":
            build = weighted_spanner
        else:
            build = weighted_spanner_recursive
        sp = build(g, 3.0, seed=11, method="exact", tracker=t)
        return sp, (t.work, t.depth, t.rounds)

    @pytest.mark.parametrize("strategy", ["batched", "recursive"])
    def test_weighted_backends_agree(self, small_weighted, strategy):
        base, base_ledger = self._build(small_weighted, strategy)
        assert base_ledger[0] > 0 and base_ledger[1] > 0
        for kernel in KERNELS:
            with engine_kernel(kernel):
                sp, ledger = self._build(small_weighted, strategy)
            assert np.array_equal(sp.edge_ids, base.edge_ids), kernel
            if kernel != "reference":
                assert ledger == base_ledger, kernel

    def test_unweighted_backends_agree(self, small_gnm):
        base, base_ledger = self._build(small_gnm, None, unweighted=True)
        for kernel in KERNELS:
            with engine_kernel(kernel):
                sp, ledger = self._build(small_gnm, None, unweighted=True)
            assert np.array_equal(sp.edge_ids, base.edge_ids), kernel
            if kernel != "reference":
                assert ledger == base_ledger, kernel

    def test_canonical_parents_certify(self, small_weighted):
        # the re-picked parents still certify the clustering: every
        # non-root parent is in-cluster and exactly one weight closer
        from repro.clustering import est_cluster

        c = est_cluster(small_weighted, 0.4, seed=5, method="exact")
        child = np.flatnonzero(c.parent >= 0)
        par = c.parent[child]
        assert (c.center[child] == c.center[par]).all()
        eids = edge_id_lookup(small_weighted, child, par)
        w = small_weighted.edge_w[eids]
        assert np.allclose(
            c.dist_to_center[child], c.dist_to_center[par] + w
        )


class TestQuotientForest:
    """The batched builder's per-level contraction primitive."""

    def _groups(self, seed):
        rng = np.random.default_rng(seed)
        n_groups = int(rng.integers(1, 5))
        edges = []
        for j in range(n_groups):
            m_j = int(rng.integers(1, 40))
            u = rng.integers(0, 30, size=m_j)
            v = rng.integers(0, 30, size=m_j)
            w = rng.uniform(0.5, 4.0, size=m_j)
            edges.append((j, u, v, w))
        return n_groups, edges

    @pytest.mark.parametrize("seed", [0, 1, 5, 9])
    def test_blocks_match_standalone_quotients(self, seed):
        n_groups, edges = self._groups(seed)
        eg = np.concatenate([np.full(u.shape[0], j) for j, u, v, w in edges])
        eu = np.concatenate([u for _, u, _, _ in edges])
        ev = np.concatenate([v for _, _, v, _ in edges])
        ew = np.concatenate([w for _, _, _, w in edges])
        ids = np.arange(eu.shape[0], dtype=np.int64)
        qf = quotient_forest(eg, eu, ev, ew, num_groups=n_groups, span=30, edge_ids=ids)
        assert qf.num_groups == n_groups
        off_edges = 0
        for j, u, v, w in edges:
            lo, hi = int(qf.ptr[j]), int(qf.ptr[j + 1])
            mask = eg == j
            ref = quotient_graph(
                labels=np.arange(30, dtype=np.int64),
                edge_u=u.astype(np.int64),
                edge_v=v.astype(np.int64),
                edge_w=w,
                edge_ids=ids[mask],
            )
            # standalone quotient keeps all 30 labels as vertices; the
            # forest block only the used ones — compare via vertex reps
            reps = qf.vertex_reps[lo:hi]
            bu = reps[qf.graph.edge_u[off_edges : off_edges + ref.graph.m] - lo]
            bv = reps[qf.graph.edge_v[off_edges : off_edges + ref.graph.m] - lo]
            assert np.array_equal(bu, ref.graph.edge_u[: ref.graph.m])
            assert np.array_equal(bv, ref.graph.edge_v[: ref.graph.m])
            assert np.allclose(
                qf.graph.edge_w[off_edges : off_edges + ref.graph.m], ref.graph.edge_w
            )
            assert np.array_equal(
                qf.rep_edge_ids[off_edges : off_edges + ref.graph.m],
                ref.rep_edge_ids,
            )
            off_edges += ref.graph.m
        assert off_edges == qf.graph.m

    def test_self_loops_dropped_and_min_weight_kept(self):
        qf = quotient_forest(
            np.array([0, 0, 0]),
            np.array([1, 1, 2]),
            np.array([1, 2, 1]),
            np.array([5.0, 3.0, 1.0]),
            num_groups=1,
            span=4,
            edge_ids=np.array([10, 11, 12]),
        )
        assert qf.graph.m == 1  # loop dropped, parallel pair merged
        assert qf.graph.edge_w[0] == 1.0
        assert qf.rep_edge_ids[0] == 12
        assert np.array_equal(qf.vertex_reps, [1, 2])

    def test_empty_input(self):
        qf = quotient_forest(
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.float64),
            num_groups=0,
            span=10,
        )
        assert qf.num_groups == 0
        assert qf.graph.n == 0 and qf.graph.m == 0
