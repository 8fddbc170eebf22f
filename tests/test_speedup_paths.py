"""Unit tests for Brent speedup projections."""

from repro.pram.speedup import processors_for_speedup


class TestBrent:
    def test_processors_for_speedup(self):
        p = processors_for_speedup(10**6, 100, 1000)
        assert p > 0
        # Brent's bound on p-processor time is work/p + depth
        assert 10**6 / (10**6 / p + 100) >= 1000 - 1e-6

    def test_processors_for_impossible_speedup(self):
        assert processors_for_speedup(10**6, 100, 10**6) == 0
        assert processors_for_speedup(100, 1, 1.0) == 1
