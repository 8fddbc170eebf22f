"""Tier-1 smoke test for ``benchmarks/bench_serve.py``.

The full benchmark runs at n = 10^5 and only in the bench suite; this
exercises the same code path at toy scale so the script (imports,
payload schema, correctness gate) cannot rot unnoticed between bench
runs.
"""

import os
import sys

import pytest

_BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)


@pytest.fixture(scope="module")
def bench_serve():
    sys.path.insert(0, _BENCH_DIR)
    try:
        import bench_serve as module
    finally:
        sys.path.remove(_BENCH_DIR)
    return module


def test_payload_schema_and_correctness(bench_serve):
    payload = bench_serve.run_serve_bench(
        1500, 0.047, graph_seed=5, build_seed=1, batch_sizes=[1, 8, 32]
    )
    assert payload["n"] == 1500
    acc = payload["acceptance"]
    for key in (
        "target_batched_speedup",
        "target_frontier_speedup",
        "batched_speedup",
        "frontier_vs_dense_speedup",
        "correct",
        "passed",
    ):
        assert key in acc, key
    # the load-bearing claim regardless of scale: converged server rows
    # equal Dijkstra, and the frontier kernel equals dense labels
    assert acc["correct"] is True
    assert payload["frontier_vs_dense"]["labels_equal"] is True
    assert [row["batch"] for row in payload["throughput"]] == [1, 8, 32]
    for row in payload["throughput"]:
        assert row["cold_qps"] > 0 and row["warm_qps"] > 0
    assert payload["h_limited"]["h"] >= 1
    # at toy scale the speedup bars are recorded, not asserted
    assert acc["batched_speedup"] > 0
    row = payload["batched_vs_singleton"]
    assert row["scipy_seconds"] > 0 and row["batched_vs_scipy"] > 0


def test_big_constants_give_acceptance_scale(bench_serve):
    assert bench_serve.BIG_N == 100_000
    assert bench_serve.BATCH_SIZES[-1] == 4096
    import math

    expected_m = bench_serve.BIG_N**2 * math.pi * bench_serve.BIG_RADIUS**2 / 2
    assert 4.5e5 < expected_m < 5.6e5
