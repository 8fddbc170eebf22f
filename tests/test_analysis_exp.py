"""Unit tests for analysis helpers and table rendering."""

import numpy as np
import pytest

from repro.analysis import fit_power_law, hop_reduction_summary, stretch_summary, theory
from repro.exp import Table, format_table
from repro.graph import grid_graph
from repro.hopsets import HopsetParams, build_hopset
from repro.spanners import unweighted_spanner


class TestFitting:
    def test_exact_power_law(self):
        f = fit_power_law([1, 10, 100], [3, 300, 30000])
        assert f.exponent == pytest.approx(2.0)
        assert f.constant == pytest.approx(3.0, rel=1e-6)
        assert f.r_squared == pytest.approx(1.0)

    def test_predict(self):
        f = fit_power_law([1, 2, 4, 8], [2, 4, 8, 16])
        assert f.predict(16) == pytest.approx(32.0, rel=1e-6)

    def test_noisy_r_squared_below_one(self):
        rng = np.random.default_rng(1)
        xs = np.geomspace(10, 1e4, 12)
        ys = 5 * xs**1.5 * np.exp(rng.normal(0, 0.2, 12))
        f = fit_power_law(xs, ys)
        assert 1.2 < f.exponent < 1.8
        assert f.r_squared < 1.0


class TestStretchHops:
    def test_stretch_summary_fields(self, small_gnm):
        sp = unweighted_spanner(small_gnm, 3, seed=1)
        s = stretch_summary(small_gnm, sp)
        assert 1.0 <= s.p50 <= s.p95 <= s.p99 <= s.max
        assert s.n_measured == small_gnm.m

    def test_hop_reduction_summary(self):
        g = grid_graph(14, 14)
        hs = build_hopset(
            g, HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5), seed=2
        )
        summary = hop_reduction_summary(hs, n_pairs=8, seed=3)
        assert summary.pairs == 8
        assert summary.mean_hopset_hops <= summary.mean_plain_hops
        assert summary.hop_reduction >= 1.0
        assert summary.max_distortion >= 1.0 - 1e-9


class TestTheory:
    def test_lemma22_bound_decreasing_in_k(self):
        b = [theory.lemma22_ball_bound(1.0, 0.3, k) for k in (2, 4, 8)]
        assert b == sorted(b, reverse=True)

    def test_cor23_bound_below_linear(self):
        assert theory.cor23_cut_bound(0.3, 2.0) < 0.3 * 2.0

    def test_spanner_size_bounds_ordering(self):
        # weighted bound exceeds unweighted by the log k factor
        assert theory.spanner_size_bound(1000, 4, weighted=True) > theory.spanner_size_bound(1000, 4)

    def test_figure2_rows_positive(self):
        assert theory.ks97_work_bound(1000, 100) == 1000 * 10
        assert theory.thm44_depth_bound(10**4, 0.5) > 0
        assert theory.lemma43_clique_bound(1000, 10, 5) == pytest.approx(2500)


class TestTables:
    def test_format_table_aligns(self):
        out = format_table("T", ["a", "bb"], [{"a": 1, "bb": 2.5}, {"a": 30}])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    def test_table_add_and_render(self):
        t = Table(title="X", columns=["c"])
        t.add(c=1.0)
        assert "X" in t.render()

    def test_markdown_rows(self):
        t = Table(title="M", columns=["a", "b"])
        t.add(a=1, b=2)
        md = t.to_markdown()
        assert "| a | b |" in md
        assert "| 1 | 2 |" in md

    def test_float_formatting(self):
        out = format_table("F", ["x"], [{"x": 123456.789}, {"x": 0.0}])
        assert "1.23e+05" in out
        assert out.splitlines()[-1].strip() == "0"
