"""Tier-1 smoke test for ``benchmarks/bench_spanner.py``.

The full benchmark runs at n = 10^5 and only in the bench suite; this
exercises the same code path at toy scale so the script (imports,
payload schema, equivalence check) cannot rot unnoticed between bench
runs.
"""

import os
import sys

import pytest

_BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)


@pytest.fixture(scope="module")
def bench_spanner():
    sys.path.insert(0, _BENCH_DIR)
    try:
        import bench_spanner as module
    finally:
        sys.path.remove(_BENCH_DIR)
    return module


def test_payload_schema_and_equivalence(bench_spanner):
    payload = bench_spanner.run_spanner_bench(
        800, 4000, 30, 8.0, 4.0, graph_seed=5, build_seed=1, repeats=1
    )
    assert payload["n"] == 800
    assert payload["params"] == {"k": 8.0, "separation": 4.0, "log_u": 30}
    assert set(payload["strategies"]) == {"batched", "recursive"}
    for row in payload["strategies"].values():
        assert row["seconds"] > 0
        assert 0 < row["edges"] <= payload["m"]
        assert row["num_groups"] >= 1
        assert row["num_buckets"] >= 1
    # the load-bearing claim: identical spanners from both strategies
    assert payload["equivalent_edge_sets"]
    assert payload["acceptance"]["target_speedup"] == 3.0
    assert payload["acceptance"]["batched_speedup"] > 0
    # at toy scale the 3x bar is not asserted — only recorded
    assert "passed" in payload["acceptance"]


def test_toy_spanner_stretch_holds(bench_spanner):
    # the bench never verifies stretch (a full verification at n = 1e5
    # costs more than the build); pin it here at toy scale instead
    from repro.graph import gnm_random_graph, with_random_weights
    from repro.spanners import verify_spanner, weighted_spanner

    g = gnm_random_graph(800, 4000, seed=5, connected=True)
    gw = with_random_weights(g, 1.0, 2.0**30, "loguniform", seed=6)
    sp = weighted_spanner(gw, 8.0, seed=1)
    verify_spanner(gw, sp)


def test_big_constants_give_acceptance_scale(bench_spanner):
    # the committed BENCH_spanner.json must describe n=1e5, m=5e5 in the
    # deep-weight-hierarchy regime the batched builder exists for
    assert bench_spanner.BIG_N == 100_000
    assert bench_spanner.BIG_M == 500_000
    assert bench_spanner.BIG_LOG_U >= 500  # every bucket level occupied
    assert bench_spanner.BIG_K >= 64
