"""Smoke tests for the example scripts.

Importing each example executes its module top level (imports and
function definitions) without running ``main()`` — catching syntax
errors, bad imports, and API drift cheaply.  One representative example
is executed end-to-end on a reduced input.
"""

import importlib.util
import os

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

EXAMPLES = [
    "quickstart.py",
    "road_network_spanner.py",
    "parallel_sssp.py",
    "shortcut_anatomy.py",
    "graph_sparsification.py",
]


def _load(fname):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, fname))
    spec = importlib.util.spec_from_file_location(fname[:-3], path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestExamples:
    @pytest.mark.parametrize("fname", EXAMPLES)
    def test_imports_cleanly(self, fname):
        mod = _load(fname)
        assert hasattr(mod, "main"), f"{fname} must define main()"
        assert mod.__doc__, f"{fname} must have a module docstring"

    def test_all_examples_listed(self):
        on_disk = sorted(
            f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")
        )
        assert on_disk == sorted(EXAMPLES), "keep this list in sync with examples/"

    def test_shortcut_anatomy_runs(self, capsys):
        # the cheapest full example run (one clustering + two dijkstras)
        mod = _load("shortcut_anatomy.py")
        mod.main()
        out = capsys.readouterr().out
        assert "Figure 3 replacement" in out or "never touches" in out

    def test_road_proxy_builder(self):
        mod = _load("road_network_spanner.py")
        g = mod.build_road_proxy(n=400, seed=1)
        from repro.graph import is_connected

        assert is_connected(g)
        assert not g.is_unweighted
