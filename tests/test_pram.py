"""Unit tests for the PRAM work/depth cost model."""

import pytest

from repro.analysis import fit_power_law
from repro.pram import (
    PramTracker,
    charge_semisort,
    log_star,
    null_tracker,
)


class TestLogStar:
    def test_small_values(self):
        assert log_star(1) == 0
        assert log_star(2) == 1
        assert log_star(4) == 2
        assert log_star(16) == 3
        assert log_star(65536) == 4

    def test_monotone(self):
        vals = [log_star(n) for n in (2, 10, 100, 10**6, 10**12)]
        assert vals == sorted(vals)
        assert vals[-1] <= 5


class TestTracker:
    def test_charge_accumulates(self):
        t = PramTracker(n=100)
        t.charge(work=10, depth=2)
        t.charge(work=5, depth=1)
        assert t.work == 15 and t.depth == 3

    def test_parallel_round_depth(self):
        t = PramTracker(n=100, depth_per_round=3)
        t.parallel_round(work=50, rounds=4)
        assert t.work == 50
        assert t.depth == 12
        assert t.rounds == 4

    def test_default_depth_per_round_is_log_star(self):
        t = PramTracker(n=10**6)
        assert t.depth_per_round == log_star(10**6)

    def test_sequential_charge(self):
        t = PramTracker(n=10)
        t.sequential(7)
        assert t.work == 7 and t.depth == 7

    def test_disabled_tracker_noop(self):
        t = null_tracker()
        t.charge(work=100, depth=100)
        t.parallel_round(work=5)
        assert t.work == 0 and t.depth == 0

    def test_phases_attribution(self):
        t = PramTracker(n=10, depth_per_round=1)
        with t.phase("a"):
            t.charge(work=3, depth=1)
            with t.phase("b"):
                t.charge(work=2, depth=1)
        assert t.phase_work["a"] == 5
        assert t.phase_work["b"] == 2
        assert t.phase_depth["a"] == 2

    def test_parallel_children_max_depth(self):
        t = PramTracker(n=10, depth_per_round=1)
        c1, c2 = t.fork(), t.fork()
        c1.charge(work=10, depth=5)
        c2.charge(work=20, depth=3)
        t.parallel_children([c1, c2])
        assert t.work == 30
        assert t.depth == 5

    def test_sequential_children_sum_depth(self):
        t = PramTracker(n=10, depth_per_round=1)
        c1, c2 = t.fork(), t.fork()
        c1.charge(work=10, depth=5)
        c2.charge(work=20, depth=3)
        t.sequential_children([c1, c2])
        assert t.work == 30
        assert t.depth == 8

    def test_fork_inherits_settings(self):
        t = PramTracker(n=50, depth_per_round=7)
        c = t.fork()
        assert c.depth_per_round == 7 and c.enabled

    def test_snapshot(self):
        t = PramTracker(n=10)
        t.parallel_round(work=4)
        snap = t.snapshot()
        assert snap["work"] == 4 and snap["rounds"] == 1

    def test_empty_children_noop(self):
        t = PramTracker(n=10)
        t.parallel_children([])
        assert t.work == 0


class TestPrimitives:
    def test_all_primitives_charge_something(self):
        t = PramTracker(n=64, depth_per_round=1)
        charge_semisort(t, 64)
        assert t.work > 0 and t.depth > 0


class TestReport:
    def test_fit_scaling_exponent_exact(self):
        xs = [10, 100, 1000]
        ys = [5 * x**2 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.constant == pytest.approx(5.0, rel=1e-6)

    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([5, 5], [1, 2])

    def test_fit_ignores_nonpositive(self):
        fit = fit_power_law([1, 10, 100, 0], [2, 20, 200, -5])
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)
        assert fit.constant == pytest.approx(2.0, rel=1e-6)
