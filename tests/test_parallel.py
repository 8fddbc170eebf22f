"""Unit tests for the worker-count clamp."""

import os

from repro.parallel import effective_workers


class TestPool:
    def test_effective_workers_clamped(self):
        assert effective_workers(10**6) <= (os.cpu_count() or 1)
        assert effective_workers(None) >= 1
        assert effective_workers(0) == 1
