"""Unit tests for the workload registry."""

import pytest

from repro.exp.workloads import Workload, get_workload, workload_names
from repro.graph.validation import validate_graph


class TestWorkloads:
    def test_names_stable(self):
        names = workload_names()
        assert "gnm-bench" in names
        assert "grid-36" in names
        assert "rgg-giant" in names

    def test_unknown_raises_with_suggestions(self):
        with pytest.raises(KeyError) as e:
            get_workload("nope")
        assert "known:" in str(e.value)

    @pytest.mark.parametrize("name", ["gnm-small", "grid-36", "torus-24", "ba-500"])
    def test_builds_valid_graph(self, name):
        g = get_workload(name)(seed=1)
        validate_graph(g)
        assert g.n > 0 and g.m > 0

    def test_giant_component_workloads_connected(self):
        from repro.graph import is_connected

        for name in ("rmat-9", "rgg-giant"):
            g = get_workload(name)(seed=2)
            assert is_connected(g)

    def test_weighted_workload(self):
        g = get_workload("gnm-weighted")(seed=3)
        assert not g.is_unweighted
        assert g.weight_ratio > 100

    def test_deterministic_per_seed(self):
        w = get_workload("gnm-small")
        assert w(seed=7) == w(seed=7)

    def test_callable_protocol(self):
        w = get_workload("grid-36")
        assert isinstance(w, Workload)
        assert w.description

