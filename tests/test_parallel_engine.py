"""Bucket-engine degenerate batches and unreached markers.

Covers the degenerate-batch accounting rules on both engine kernels,
the ``INT_INF`` unreached marker, and the CLI's refusal of the removed
``--workers`` and ``--backend`` flags.
"""

import numpy as np
import pytest

from repro.graph import from_edges, gnm_random_graph, with_random_weights
from repro.kernels.numpy_kernel import INT_INF
from repro.paths import shortest_path_forest, shortest_paths, shortest_paths_batch
from repro.pram import PramTracker


def _float_graph(n, m, seed):
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    return with_random_weights(g, 0.5, 40.0, "loguniform", seed=seed + 100)


def _int_graph(n, m, seed):
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    return with_random_weights(g, 1, 8, "integer", seed=seed + 100)


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
        _, owner = shortest_path_forest(g, single.dist, np.empty(0, np.int64))
        assert (owner == -1).all()
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
        w = gi.weights.astype(np.int64)
        res = shortest_paths(gi, 0, offsets=np.asarray([0]), weights=w)
        _, owner = shortest_path_forest(gi, res.dist, 0, weights=w)
        assert res.dist[3] == INT_INF and owner[3] == -1
        res_f = shortest_paths(g, 0)
        assert np.isinf(res_f.dist[3])
