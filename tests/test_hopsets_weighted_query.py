"""Tests for scale-targeted weighted queries."""

import numpy as np
import pytest

from repro.graph import gnm_random_graph, with_random_weights
from repro.hopsets import HopsetParams, build_weighted_hopset, exact_distance

PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5)


@pytest.fixture(scope="module")
def built():
    g = gnm_random_graph(200, 800, seed=61, connected=True)
    gw = with_random_weights(g, 1.0, 200.0, "loguniform", seed=62)
    wh = build_weighted_hopset(gw, PARAMS, eta=0.3, zeta=0.25, seed=63)
    return gw, wh


class TestScaleTargetedQuery:
    def test_scale_for_brackets(self, built):
        _, wh = built
        for sc in wh.scales:
            chosen = wh.scale_for(sc.d * 1.5)
            assert chosen.d <= sc.d * 1.5

    def test_scale_for_below_min_returns_first(self, built):
        _, wh = built
        assert wh.scale_for(1e-9).d == wh.scales[0].d

    def test_estimate_query_matches_full_query_with_good_estimate(self, built):
        gw, wh = built
        rng = np.random.default_rng(64)
        for _ in range(6):
            s, t = rng.integers(0, gw.n, 2)
            if s == t:
                continue
            d = exact_distance(gw, int(s), int(t))
            est_full, _ = wh.query(int(s), int(t))
            est_scale, _ = wh.query_with_estimate(int(s), int(t), d)
            # the bracketing scale is among those the full query takes
            # the min over, so targeted >= full; both are upper bounds
            assert est_scale >= est_full - 1e-9
            assert est_scale >= d - 1e-9
            # and the targeted scale still certifies (1+eps) accuracy
            bound = (1 + wh.zeta) * PARAMS.predicted_distortion(gw.n)
            assert est_scale <= bound * d + 1e-9

    def test_estimate_query_upper_bound_even_with_bad_estimate(self, built):
        gw, wh = built
        d = exact_distance(gw, 0, gw.n - 1)
        est, _ = wh.query_with_estimate(0, gw.n - 1, d * 100)
        assert est >= d - 1e-9  # possibly loose/inf, never an undercount
