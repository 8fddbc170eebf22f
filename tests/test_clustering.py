"""Unit tests for EST clustering: Algorithm 1's invariants and both modes."""

import math

import numpy as np
import pytest

from oracles import KERNELS, engine_kernel, est_cluster_reference
from repro.analysis.theory import lemma21_radius_bound
from repro.clustering.diagnostics import empirical_cut_probability
from repro.clustering import (
    adjacent_cluster_counts,
    ball_cluster_count,
    cluster_radii,
    cut_edge_mask,
    cut_fraction,
    est_cluster,
    sample_shifts,
)
from repro.errors import ParameterError
from repro.graph import (
    barabasi_albert_graph,
    from_edges,
    gnm_random_graph,
    grid_graph,
    with_random_weights,
)
from repro.paths.dijkstra import all_pairs_distances
from repro.paths.trees import extract_path
from repro.pram import PramTracker


class TestShifts:
    def test_sample_shape_and_positivity(self):
        s = sample_shifts(100, 0.5, seed=1)
        assert s.shape == (100,)
        assert (s >= 0).all()

    def test_mean_close_to_inverse_beta(self):
        s = sample_shifts(20000, 0.25, seed=2)
        assert s.mean() == pytest.approx(4.0, rel=0.05)

    def test_invalid_beta(self):
        with pytest.raises(ParameterError):
            sample_shifts(10, 0.0)

    def test_upper_bound_rarely_exceeded(self):
        n, beta = 500, 0.3
        bound = lemma21_radius_bound(n, beta, k=2.0)
        exceed = 0
        for seed in range(20):
            s = sample_shifts(n, beta, seed=seed)
            exceed += int(s.max() > bound)
        # Pr[exceed] <= 1/n per trial
        assert exceed <= 2


class TestESTInvariants:
    @pytest.mark.parametrize("method", ["exact", "round"])
    def test_partition_valid(self, small_gnm, method):
        c = est_cluster(small_gnm, 0.4, seed=5, method=method)
        assert c.n == small_gnm.n
        assert (c.center >= 0).all()
        # centers own themselves and are their own roots
        for ctr in c.centers:
            assert c.center[ctr] == ctr
            assert c.parent[ctr] == -1

    @pytest.mark.parametrize("method", ["exact", "round"])
    def test_clusters_connected_via_forest(self, small_gnm, method):
        c = est_cluster(small_gnm, 0.4, seed=5, method=method)
        for v in range(0, small_gnm.n, 7):
            path = extract_path(c.parent, v)
            assert path[0] == c.center[v]
            assert (c.center[np.asarray(path)] == c.center[v]).all()

    def test_exact_is_argmin_assignment(self, small_gnm):
        c = est_cluster(small_gnm, 0.35, seed=9, method="exact")
        D = all_pairs_distances(small_gnm)
        key = D - c.shifts[:, None]
        best = key.min(axis=0)
        mine = key[c.center, np.arange(small_gnm.n)]
        assert np.allclose(mine, best)

    def test_round_mode_weighted_integer(self, small_int_weighted):
        c = est_cluster(small_int_weighted, 0.2, seed=3, method="round")
        assert (c.center >= 0).all()
        assert c.rounds > 0

    def test_round_mode_rejects_fractional_weights(self, small_weighted):
        with pytest.raises(ParameterError):
            est_cluster(small_weighted, 0.2, seed=3, method="round")

    def test_auto_mode_dispatch(self, small_gnm, small_weighted):
        c1 = est_cluster(small_gnm, 0.3, seed=1)  # unweighted -> round
        c2 = est_cluster(small_weighted, 0.3, seed=1)  # fractional -> exact
        assert c1.n == small_gnm.n and c2.n == small_weighted.n

    def test_invalid_beta(self, small_gnm):
        for bad in (0.0, -1.0, float("inf")):
            with pytest.raises(ParameterError):
                est_cluster(small_gnm, bad)

    def test_provided_shifts_used(self, small_gnm):
        shifts = np.zeros(small_gnm.n)
        shifts[0] = 100.0  # vertex 0 starts far earlier than everyone
        c = est_cluster(small_gnm, 0.3, shifts=shifts, method="exact")
        assert (c.center == 0).all()

    def test_wrong_shift_length_rejected(self, small_gnm):
        with pytest.raises(ParameterError):
            est_cluster(small_gnm, 0.3, shifts=np.zeros(3))

    def test_deterministic_given_seed(self, small_gnm):
        a = est_cluster(small_gnm, 0.4, seed=77, method="round")
        b = est_cluster(small_gnm, 0.4, seed=77, method="round")
        assert np.array_equal(a.center, b.center)

    def test_sizes_and_labels_consistent(self, small_gnm):
        c = est_cluster(small_gnm, 0.4, seed=5)
        assert c.sizes.sum() == small_gnm.n
        assert c.num_clusters == c.sizes.shape[0]
        for lab in range(min(c.num_clusters, 5)):
            assert c.members(lab).shape[0] == c.sizes[lab]

    def test_tracker_records_rounds(self, small_grid):
        t = PramTracker(n=small_grid.n, depth_per_round=1)
        est_cluster(small_grid, 0.5, seed=2, method="round", tracker=t)
        assert t.rounds > 0 and t.work > 0


class TestDiagnostics:
    def test_cut_mask_and_fraction(self, small_gnm):
        c = est_cluster(small_gnm, 0.4, seed=5)
        mask = cut_edge_mask(small_gnm, c)
        assert mask.shape[0] == small_gnm.m
        assert cut_fraction(small_gnm, c) == pytest.approx(mask.mean())

    @pytest.mark.parametrize("beta", [0.1, 0.3])
    def test_empirical_cut_probability_within_cor23(self, beta):
        # Corollary 2.3: Pr[edge of weight w is cut] <= beta * w
        g = grid_graph(16, 16)
        freq, bound = empirical_cut_probability(g, beta, trials=8, seed=1, method="exact")
        assert freq.shape == bound.shape == (g.m,)
        assert np.array_equal(bound, np.minimum(1.0, beta * g.edge_w))
        assert ((freq >= 0) & (freq <= 1)).all()
        assert freq.mean() <= bound.mean()

    def test_high_beta_cuts_more(self, small_gnm):
        rng = np.random.default_rng(0)
        lo = np.mean([cut_fraction(small_gnm, est_cluster(small_gnm, 0.05, seed=rng)) for _ in range(5)])
        hi = np.mean([cut_fraction(small_gnm, est_cluster(small_gnm, 1.5, seed=rng)) for _ in range(5)])
        assert lo < hi

    def test_cluster_radii_match_tree_depths(self, small_gnm):
        c = est_cluster(small_gnm, 0.4, seed=5, method="exact")
        radii = cluster_radii(c)
        assert radii.shape[0] == c.num_clusters
        assert (radii >= 0).all()
        assert radii.max() == pytest.approx(c.dist_to_center.max())

    def test_radius_bound_lemma21(self, small_gnm):
        # radius <= 2 log(n)/beta w.p. >= 1 - 1/n; over 10 trials expect
        # no violation on a 120-vertex graph
        beta = 0.4
        bound = 2 * math.log(small_gnm.n) / beta
        for seed in range(10):
            c = est_cluster(small_gnm, beta, seed=seed, method="exact")
            assert cluster_radii(c).max() <= bound

    def test_adjacent_cluster_counts(self, small_gnm):
        c = est_cluster(small_gnm, 0.4, seed=5)
        counts = adjacent_cluster_counts(small_gnm, c)
        assert counts.shape[0] == small_gnm.n
        # brute force check on a few vertices
        lab = c.labels
        for v in range(0, small_gnm.n, 17):
            nbr_labs = set(int(lab[u]) for u in small_gnm.neighbors(v)) - {int(lab[v])}
            assert counts[v] == len(nbr_labs)

    def test_ball_cluster_count_radius_zero(self, small_gnm):
        c = est_cluster(small_gnm, 0.4, seed=5)
        assert ball_cluster_count(small_gnm, c, 0, 0.0) == 1

    def test_singleton_graph(self):
        g = from_edges(1, [])
        c = est_cluster(g, 0.5, seed=1, method="exact")
        assert c.num_clusters == 1


# ----------------------------------------------------------------------
# ROADMAP item 2a: kernel-independent forests in every race mode
# ----------------------------------------------------------------------
class TestCanonicalForestsAcrossBackends:
    """Integer Dial round-mode races (EST mode 1) canonicalize their
    parent forests exactly like the exact float mode: ties between
    equally-tight tree arcs resolve to the minimum source, so the forest
    edge set is a function of the distances alone — identical on every
    kernel.  Every race runs on the numpy kernels and on the heapq
    oracle kernel (``oracles.KERNELS``), which breaks ties differently."""

    @staticmethod
    def _forest_key(c):
        child, parent = c.forest_edges()
        return set(zip(child.tolist(), parent.tolist()))

    def _all_clusterings(self, g, beta, seed):
        out = []
        for kernel in KERNELS:
            with engine_kernel(kernel):
                out.append(est_cluster(g, beta, seed=seed, method="round"))
        return out

    def test_dial_round_mode_forest_identical(self, small_int_weighted):
        results = self._all_clusterings(small_int_weighted, 0.2, seed=3)
        base = results[0]
        for other in results[1:]:
            assert np.array_equal(base.center, other.center)
            assert np.array_equal(base.parent, other.parent)
            assert self._forest_key(base) == self._forest_key(other)

    def test_dial_forest_arcs_are_tight(self, small_int_weighted):
        # every canonical parent arc is tight for the race distances
        g = small_int_weighted
        c = est_cluster(g, 0.2, seed=3, method="round")
        child, parent = c.forest_edges()
        for ch, pa in zip(child.tolist()[:50], parent.tolist()[:50]):
            assert c.center[ch] == c.center[pa]

    def test_forest_race_mode1_identical(self, small_int_weighted):
        from repro.clustering import est_cluster_forest
        from repro.clustering.shifts import sample_shifts
        from repro.graph.builders import induced_subgraph_forest
        from repro.rng import resolve_rng

        g = small_int_weighted
        half = g.n // 2
        groups = [np.arange(half), np.arange(half, g.n)]
        forest = induced_subgraph_forest(g, groups)
        shifts = np.concatenate([
            sample_shifts(half, 0.3, resolve_rng(1)),
            sample_shifts(g.n - half, 0.3, resolve_rng(2)),
        ])
        results = []
        for kernel in KERNELS:
            with engine_kernel(kernel):
                results.append(est_cluster_forest(
                    forest.graph, 0.3, forest.ptr, shifts, method="round",
                ))
        base = results[0]
        for other in results[1:]:
            assert np.array_equal(base.labels, other.labels)
            assert np.array_equal(base.parent, other.parent)
            assert self._forest_key(base) == self._forest_key(other)


# ----------------------------------------------------------------------
# est_cluster is the one-block race of est_cluster_forest; its pre-fold
# single-graph body is the test reference and must agree exactly
# ----------------------------------------------------------------------
def _reference_graphs():
    g = gnm_random_graph(150, 600, seed=31, connected=True)
    isolated = [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (7, 8)]  # 3, 9, 10, 11 alone
    return {
        "unweighted": g,
        "grid": grid_graph(9, 11),
        "ba": barabasi_albert_graph(200, 3, seed=32),
        "integer": with_random_weights(g, 1, 9, "integer", seed=33),
        "float": with_random_weights(g, 1.0, 64.0, "loguniform", seed=34),
        "isolated": from_edges(12, isolated),
        "isolated-int": from_edges(12, isolated, weights=[2, 3, 1, 4, 2, 5]),
        "empty": from_edges(0, []),
        "single": from_edges(1, []),
    }


REFERENCE_GRAPHS = _reference_graphs()


def _traced(fn, g, **kw):
    t = PramTracker(n=g.n)
    c = fn(g, tracker=t, **kw)
    return c, (t.work, t.depth, t.rounds, t.phase_work, t.phase_depth)


def _assert_same_clustering(a, b):
    for field in ("center", "parent", "dist_to_center", "shifts"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype, field
        assert np.array_equal(x, y), field
    assert a.rounds == b.rounds
    assert a.beta == b.beta


class TestMatchesReference:
    """``est_cluster`` against ``oracles.est_cluster_reference`` on
    every engine: outputs and the tracker's ledger are identical."""

    @pytest.mark.parametrize("beta", [0.05, 0.3, 1.5])
    @pytest.mark.parametrize("method", ["auto", "round", "exact"])
    @pytest.mark.parametrize("kind", sorted(REFERENCE_GRAPHS))
    def test_equal_to_reference(self, kind, method, beta):
        g = REFERENCE_GRAPHS[kind]
        kw = dict(beta=beta, seed=7, method=method)
        if kind == "float" and method == "round":
            with pytest.raises(ParameterError) as ref_err:
                est_cluster_reference(g, **kw)
            with pytest.raises(ParameterError) as err:
                est_cluster(g, **kw)
            assert str(err.value) == str(ref_err.value)
            return
        c, ledger = _traced(est_cluster, g, **kw)
        ref, ref_ledger = _traced(est_cluster_reference, g, **kw)
        _assert_same_clustering(c, ref)
        assert ledger == ref_ledger

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "kind,method",
        [
            ("integer", "round"),
            ("integer", "exact"),
            ("float", "exact"),
            ("isolated-int", "round"),
            ("grid", "exact"),
        ],
    )
    def test_engine_races_equal_on_every_kernel(self, kind, method, kernel):
        g = REFERENCE_GRAPHS[kind]
        with engine_kernel(kernel):
            kw = dict(beta=0.3, seed=11, method=method)
            c, ledger = _traced(est_cluster, g, **kw)
            ref, ref_ledger = _traced(est_cluster_reference, g, **kw)
        _assert_same_clustering(c, ref)
        assert ledger == ref_ledger

    def test_given_shifts_equal_to_reference(self, small_int_weighted):
        shifts = sample_shifts(small_int_weighted.n, 0.2, seed=4)
        for method in ("round", "exact"):
            c = est_cluster(small_int_weighted, 0.2, shifts=shifts, method=method)
            ref = est_cluster_reference(
                small_int_weighted, 0.2, shifts=shifts, method=method
            )
            _assert_same_clustering(c, ref)
