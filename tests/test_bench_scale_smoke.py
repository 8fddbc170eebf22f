"""Tier-1 smoke test for ``benchmarks/bench_scale.py``.

The full benchmark ingests m = 5*10^7 edges and only runs in the bench
suite; this drives the same stages (binary generation, streaming
ingest, memmap query, SIGKILL-and-resume) at toy scale so the script
and its payload schema cannot rot unnoticed.
"""

import os
import sys

import pytest

_BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)


@pytest.fixture(scope="module")
def bench_scale():
    # scale constants freeze at import; set the env var only for the
    # import itself so other bench smoke tests see their own setting
    prev = os.environ.get("BENCH_SMOKE")
    os.environ["BENCH_SMOKE"] = "1"
    sys.path.insert(0, _BENCH_DIR)
    try:
        import bench_scale as module
    finally:
        sys.path.remove(_BENCH_DIR)
        if prev is None:
            del os.environ["BENCH_SMOKE"]
        else:
            os.environ["BENCH_SMOKE"] = prev
    # the module froze its scale constants at import; make sure the
    # env var was seen (a stale cached import would run at 10^7)
    assert module.SMOKE and module.N <= 10_000
    return module


def test_payload_schema_and_stage_results(bench_scale, tmp_path):
    payload = bench_scale.run_scale_bench(str(tmp_path))
    assert payload["smoke"] is True
    assert payload["scale"]["n"] == bench_scale.N
    assert 0 < payload["scale"]["m"] <= bench_scale.M
    assert payload["scale"]["num_arcs"] == 2 * payload["scale"]["m"]
    ing = payload["ingest"]
    assert ing["raw_edges"] + ing["self_loops"] == bench_scale.M
    assert ing["store_bytes"] > 0 and ing["peak_rss_bytes"] > 0
    # the query must have swept the whole (connected) graph
    assert payload["query"]["reached"] == payload["scale"]["n"]
    assert payload["query"]["max_dist"] > 0
    # the load-bearing claim: a SIGKILLed build resumed bit-identically
    assert payload["resume"]["resumed_equals_uninterrupted"] is True
    assert payload["resume"]["kill_after_levels"] >= 1
    acc = payload["acceptance"]
    assert acc["rss_ceiling_bytes_per_arc"] == 40.0
    assert acc["passed"] is True


def test_query_counts_unreached_vertices(bench_scale, tmp_path):
    from repro.graph import from_edges
    from repro.graph.storage import save_store

    # two components: {0, 1, 2} and {3, 4}; the query starts at 0
    g = from_edges(5, [(0, 1), (1, 2), (3, 4)], weights=[2.0, 3.0, 1.0])
    save_store(g, tmp_path / "store")
    qry = bench_scale.stage_query(str(tmp_path / "store"))
    assert qry["n"] == 5
    assert qry["reached"] == 3
    assert qry["max_dist"] == 5.0
