"""Tier-1 smoke test for ``benchmarks/bench_dynamic.py``.

The full benchmark churns an n = 10^5 RGG and only runs in the bench
suite; this exercises the same code path at toy scale so the script
(imports, payload schema, per-batch guarantee checks) cannot rot
unnoticed between bench runs.
"""

import os
import sys

import pytest

_BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)


@pytest.fixture(scope="module")
def bench_dynamic():
    sys.path.insert(0, _BENCH_DIR)
    try:
        import bench_dynamic as module
    finally:
        sys.path.remove(_BENCH_DIR)
    return module


def test_payload_schema_and_guarantees(bench_dynamic):
    payload = bench_dynamic.run_dynamic_bench(
        1500, 0.047, graph_seed=5, build_seed=1, batches=2, batch_edges=4
    )
    assert payload["n"] == 1500
    assert payload["batches"] == 2
    acc = payload["acceptance"]
    for key in (
        "target_hopset_speedup",
        "hopset_speedup",
        "guarantees_every_batch",
        "passed",
    ):
        assert key in acc, key
    # the load-bearing claim regardless of scale: every batch kept
    # Definition 2.4 and served-row exactness
    assert acc["guarantees_every_batch"] is True
    section = payload["hopset"]
    assert len(section["per_batch"]) == 2
    assert section["incremental_seconds"] > 0
    assert section["rebuild_seconds"] > 0
    for row in section["per_batch"]:
        assert row["row_exact"] is True
        assert row["rebuilt_blocks"] <= row["dirty_blocks"]
    # at toy scale the speedup bar is recorded, not asserted
    assert acc["hopset_speedup"] > 0


def test_big_constants_give_acceptance_scale(bench_dynamic):
    assert bench_dynamic.BIG_N == 100_000
    assert bench_dynamic.TARGET_HOPSET == 3.0
    import math

    expected_m = (
        bench_dynamic.BIG_N**2 * math.pi * bench_dynamic.BIG_RADIUS**2 / 2
    )
    assert 4.5e5 < expected_m < 5.6e5
