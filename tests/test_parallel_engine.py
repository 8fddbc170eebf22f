"""Bucket-engine claims and degenerate batches.

Covers the scatter-min claim reduction against a lexsort reference,
the degenerate-batch accounting rules on both engine kernels, the
``INT_INF`` unreached marker, and the CLI's refusal of the removed
``--workers`` and ``--backend`` flags.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kernels.numpy_kernel as npk
from repro.graph import from_edges, gnm_random_graph, with_random_weights
from repro.kernels.numpy_kernel import INT_INF
from repro.paths import shortest_paths, shortest_paths_batch
from repro.pram import PramTracker

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _float_graph(n, m, seed):
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    return with_random_weights(g, 0.5, 40.0, "loguniform", seed=seed + 100)


def _int_graph(n, m, seed):
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    return with_random_weights(g, 1, 8, "integer", seed=seed + 100)


class TestTieBreakDeterminism:
    @SETTINGS
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=1, max_value=400),
        st.sampled_from([np.int64, np.float64]),
        st.sampled_from([np.int32, np.int64]),
        st.booleans(),
    )
    def test_claim_min_matches_lexsort_reference(self, seed, m, cand_dtype,
                                                 id_dtype, ranked):
        """The scatter-min claim crowns exactly the lexsort winners —
        min (cand, rank[src], src) per state — on tie-heavy claims with
        parallel duplicates, in any input order."""
        rng = np.random.default_rng(seed)
        nn = 40
        nbr = rng.integers(0, nn, m).astype(id_dtype)
        src = rng.integers(0, nn, m).astype(id_dtype)
        cand = rng.integers(0, 4, m).astype(cand_dtype)  # few values: ties
        dup = rng.random(m) < 0.2  # equal-weight parallel arcs
        nbr[1:][dup[1:]], src[1:][dup[1:]] = nbr[:-1][dup[1:]], src[:-1][dup[1:]]
        cand[1:][dup[1:]] = cand[:-1][dup[1:]]
        rank = rng.integers(0, 3, nn) if ranked else np.zeros(nn, np.int64)

        sel = np.lexsort((src, rank[src], cand, nbr))
        first = np.ones(m, dtype=bool)
        first[1:] = nbr[sel][1:] != nbr[sel][:-1]
        want = tuple(a[sel][first] for a in (nbr, src, cand))

        perm = rng.permutation(m)
        buf = np.full(nn, -7, dtype=np.int64)  # stale scratch is fine
        got = npk.claim_min(nbr[perm], src[perm], cand[perm],
                            rank if ranked else None, buf)
        order = np.argsort(got[0])
        assert len(set(got[0].tolist())) == got[0].shape[0]
        for g_arr, w_arr in zip(got, want):
            assert g_arr.dtype == w_arr.dtype
            assert np.array_equal(g_arr[order], w_arr)


class TestDegenerateBatches:
    """Zero runs / nothing-reachable batches must charge the tracker
    nothing and still come back correctly shaped."""

    # "reference" runs the batch on the heapq oracle kernel
    @pytest.mark.parametrize("kernel", ["numpy", "reference"], indirect=True)
    @pytest.mark.parametrize("runs", [[], [[]], [[], []]])
    def test_empty_batches_charge_nothing(self, kernel, runs):
        g = _float_graph(30, 90, seed=17)
        t = PramTracker(n=g.n)
        res = shortest_paths_batch(g, runs, tracker=t)
        k = len(runs)
        assert res.dist.shape == (k, g.n)
        # every row is the unreached row of a sourceless singleton run
        single = shortest_paths(g, np.empty(0, np.int64))
        assert res.dist.dtype == single.dist.dtype == np.float64
        assert (single.owner == -1).all()
        assert (res.dist == single.dist).all() and np.isinf(res.dist).all()
        assert res.buckets == 0 and res.relax_rounds == 0
        assert res.arcs_relaxed == 0
        assert t.work == 0 and t.rounds == 0

    def test_zero_runs_int_mode_shape(self):
        g = _int_graph(25, 80, seed=19)
        res = shortest_paths_batch(g, [], weights=g.weights.astype(np.int64))
        assert res.dist.shape == (0, g.n) and res.dist.dtype == np.int64


class TestHopsetWorkers:
    def test_cli_workers_flag(self, capsys):
        """``--workers`` and ``--backend`` are gone from every command:
        argparse refuses them instead of accepting a knob that selects
        nothing."""
        from repro.cli import main

        for cmd in ("sssp", "hopset", "spanner", "serve", "update",
                    "cluster", "cluster-tree"):
            for flag, value in (("--workers", "3"), ("--backend", "numpy")):
                with pytest.raises(SystemExit) as exc:
                    main([cmd, "--n", "60", "--m", "240", flag, value])
                assert exc.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err
        assert main(["sssp", "--n", "60", "--m", "240", "--check"]) == 0
        assert "match" in capsys.readouterr().out


class TestIntInfStaysUnreached:
    def test_unreachable_marker_roundtrip(self):
        # isolated vertex: unreached stays INT_INF/-1
        g = from_edges(4, [(0, 1)], weights=[2.0])
        gi = from_edges(4, [(0, 1)], weights=[3.0])
        res = shortest_paths(
            gi, 0, offsets=np.asarray([0]), weights=gi.weights.astype(np.int64)
        )
        assert res.dist[3] == INT_INF and res.owner[3] == -1
        res_f = shortest_paths(g, 0)
        assert np.isinf(res_f.dist[3])
