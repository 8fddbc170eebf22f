"""Public API surface: exports resolve, docstrings exist, determinism holds."""

import inspect

import numpy as np
import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name}"

    def test_public_callables_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not isinstance(obj, type):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_public_classes_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"class {name} lacks a docstring"

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.clustering
        import repro.ctree
        import repro.dynamic
        import repro.exp
        import repro.graph
        import repro.hopsets
        import repro.kernels
        import repro.paths
        import repro.pram
        import repro.serve
        import repro.spanners

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestEndToEndDeterminism:
    """Identical seeds must give identical artifacts across the full API."""

    def test_spanner_pipeline(self):
        def run():
            g = repro.gnm_random_graph(200, 900, seed=5, connected=True)
            sp = repro.unweighted_spanner(g, 3, seed=6)
            return sp.edge_ids

        assert np.array_equal(run(), run())

    def test_hopset_pipeline(self):
        def run():
            g = repro.grid_graph(15, 15)
            hs = repro.build_hopset(g, repro.HopsetParams(), seed=7)
            d, h = repro.hopset_distance(hs, 0, 224)
            return hs.size, d, h

        assert run() == run()

    def test_weighted_pipeline(self):
        def run():
            g = repro.with_random_weights(
                repro.gnm_random_graph(150, 600, seed=8, connected=True),
                1, 100, "loguniform", seed=9,
            )
            wh = repro.build_weighted_hopset(g, seed=10)
            return wh.total_hopset_edges, wh.query(0, 149)

        assert run() == run()

    def test_sparsify_pipeline(self):
        def run():
            g = repro.gnm_random_graph(200, 2000, seed=11, connected=True)
            return repro.spanner_sparsify(g, seed=12).sizes

        assert run() == run()


class TestSignatures:
    """Seed/tracker conventions hold across the public constructors."""

    @pytest.mark.parametrize(
        "fn_name",
        ["unweighted_spanner", "weighted_spanner", "baswana_sen_spanner",
         "build_hopset", "ks97_hopset", "cohen_style_hopset"],
    )
    def test_seed_and_tracker_params(self, fn_name):
        sig = inspect.signature(getattr(repro, fn_name))
        assert "seed" in sig.parameters
        assert "tracker" in sig.parameters

    @pytest.mark.parametrize(
        "gen", ["gnm_random_graph", "barabasi_albert_graph", "random_geometric_graph"]
    )
    def test_generators_take_seed(self, gen):
        assert "seed" in inspect.signature(getattr(repro, gen)).parameters
