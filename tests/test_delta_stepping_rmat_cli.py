"""Unit tests for delta-stepping, the R-MAT generator, and the CLI."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graph import gnm_random_graph, with_random_weights
from repro.graph.generators import rmat_graph
from repro.graph.validation import validate_graph
from repro.paths.delta_stepping import delta_stepping
from repro.paths.dijkstra import dijkstra_scipy
from repro.pram import PramTracker


class TestDeltaStepping:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dijkstra(self, seed):
        g = with_random_weights(
            gnm_random_graph(120, 500, seed=seed, connected=True), 1, 20, "uniform", seed=seed + 9
        )
        dist, phases = delta_stepping(g, 0)
        assert np.allclose(dist, dijkstra_scipy(g, 0))
        assert phases >= 1

    def test_unweighted(self, small_grid):
        dist, _ = delta_stepping(small_grid, 0, delta=1.0)
        assert np.allclose(dist, dijkstra_scipy(small_grid, 0))

    def test_small_delta_more_phases(self, small_weighted):
        _, p_small = delta_stepping(small_weighted, 0, delta=1.0)
        _, p_big = delta_stepping(small_weighted, 0, delta=1000.0)
        assert p_small >= p_big

    def test_invalid_delta(self, small_weighted):
        with pytest.raises(ParameterError):
            delta_stepping(small_weighted, 0, delta=0.0)

    def test_empty_graph(self, empty_graph):
        dist, phases = delta_stepping(empty_graph, 0)
        assert dist[0] == 0 and np.isinf(dist[1:]).all()

    def test_disconnected(self, disconnected):
        dist, _ = delta_stepping(disconnected, 0, delta=1.0)
        assert np.isinf(dist[3])

    def test_tracker_rounds(self, small_weighted):
        t = PramTracker(n=small_weighted.n, depth_per_round=1)
        delta_stepping(small_weighted, 0, tracker=t)
        assert t.rounds > 0


class TestRmat:
    def test_size_and_validity(self):
        g = rmat_graph(8, edge_factor=8, seed=1)
        validate_graph(g)
        assert g.n == 256
        assert 0 < g.m <= 8 * 256

    def test_skewed_degrees(self):
        g = rmat_graph(10, edge_factor=8, seed=2)
        deg = np.sort(np.asarray(g.degree()))[::-1]
        # power-law-ish: top vertex far above median
        assert deg[0] >= 5 * max(np.median(deg), 1)

    def test_deterministic(self):
        assert rmat_graph(7, seed=3) == rmat_graph(7, seed=3)

    def test_invalid_probs(self):
        with pytest.raises(ParameterError):
            rmat_graph(5, a=0.5, b=0.3, c=0.3)


class TestCLI:
    def test_generate_and_spanner(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "g.txt"
        assert main(["generate", "--kind", "grid", "--rows", "8", "--cols", "8", "-o", str(out)]) == 0
        assert out.exists()
        assert main(["spanner", "-i", str(out), "-k", "2", "--seed", "1"]) == 0
        text = capsys.readouterr().out
        assert "spanner:" in text and "stretch:" in text

    def test_spanner_output_file(self, tmp_path):
        from repro.cli import main
        from repro.graph.io import load_edgelist

        g_path = tmp_path / "g.txt"
        sp_path = tmp_path / "sp.txt"
        main(["generate", "--kind", "gnm", "--n", "100", "--m", "400", "-o", str(g_path)])
        main(["spanner", "-i", str(g_path), "-k", "3", "-o", str(sp_path)])
        sp = load_edgelist(sp_path)
        assert 0 < sp.m <= 400

    def test_weighted_generate_routes_to_weighted_spanner(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "gw.txt"
        main(["generate", "--kind", "gnm", "--n", "80", "--m", "300", "--weights", "-o", str(out)])
        assert main(["spanner", "-i", str(out), "-k", "2"]) == 0
        assert "weighted" in capsys.readouterr().out

    def test_hopset_query(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "g.txt"
        main(["generate", "--kind", "grid", "--rows", "10", "--cols", "10", "-o", str(out)])
        assert main(["hopset", "-i", str(out), "--query", "0", "99"]) == 0
        text = capsys.readouterr().out
        assert "query 0->99" in text

    def test_hopset_query_ratio_needs_positive_finite_distance(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "g.txt"
        out.write_text("0 1 1\n1 2 1\n3 4 1\n")  # 0..2 and 3..4 disconnected
        assert main(["hopset", "-i", str(out), "--query", "0", "4"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert "exact=inf" in line and "nan" not in line and "x)" not in line
        assert main(["hopset", "-i", str(out), "--query", "2", "2"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert "exact=0.0" in line and "x)" not in line
        assert main(["hopset", "-i", str(out), "--query", "0", "2"]) == 0
        assert "(1.0000x)" in capsys.readouterr().out

    def test_strategy_flag_is_gone(self, capsys):
        from repro.cli import main

        for cmd in ("hopset", "spanner"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--n", "50", "--m", "120", "--strategy", "batched"])
            assert exc.value.code == 2
            assert "--strategy" in capsys.readouterr().err

    def test_cluster_command(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "g.txt"
        main(["generate", "--kind", "grid", "--rows", "9", "--cols", "9", "-o", str(out)])
        assert main(["cluster", "-i", str(out), "--beta", "0.3"]) == 0
        assert "clusters:" in capsys.readouterr().out

    def test_generated_default_input(self, capsys):
        from repro.cli import main

        assert main(["cluster", "--n", "60", "--m", "200", "--beta", "0.4"]) == 0

    def test_unknown_kind(self, tmp_path, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--kind", "nope", "-o", "x"])
