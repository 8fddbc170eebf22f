"""Out-of-core scale: n = 10^7 streaming ingest, memmap query, resume.

The tentpole claims of the storage tier, measured end to end with every
stage in its own forked subprocess so each reports an honest private
peak RSS (``ru_maxrss``):

* **generate** — write a binary edge list of m = 5*10^7 edges (a
  Hamiltonian path for connectivity plus random edges, integer weights
  1..16) in bounded chunks; the full edge list never exists in RAM.
* **ingest** — :func:`repro.graph.storage.ingest_edgelist_binary`
  streams it into a memmap store with the chunked two-pass counting
  sort.  **Asserted bar** (full scale): peak RSS of the ingest process
  stays under ``40 bytes x num_arcs`` — O(n + chunk) scratch, not
  O(m).
* **query** — the memmap-backed graph answers a full Dial SSSP from
  vertex 0; pages fault in on demand.  Reachability of every vertex is
  asserted (the path edges guarantee connectivity).
* **resume** — a seeded checkpointed hopset build is killed with
  ``SIGKILL`` after its second level (a real process death, injected
  by a deterministic call-count trigger), resumed in a fresh process,
  and the resumed edge set must equal the uninterrupted build's **bit
  for bit**.  Runs at n = 2*10^4 — durability semantics don't need the
  10^7 graph, and the equivalence is exact, not statistical.

Emits ``BENCH_scale.json``; ``BENCH_SMOKE=1`` runs at toy scale,
asserting schema and resume equivalence but not the RSS bar.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import resource
import signal
import sys
import time

import numpy as np
from repro.rng import resolve_rng

import _report

SMOKE = os.environ.get("BENCH_SMOKE", "") == "1"
if SMOKE:
    N, M = 3_000, 9_000
    CHUNK = 2_048
else:
    N, M = 10_000_000, 50_000_000
    CHUNK = 4_194_304

RSS_CEILING_BYTES_PER_ARC = 40.0
RESUME_N, RESUME_M, RESUME_KILL_AT = 20_000, 60_000, 2
WEIGHT_MAX = 16


def _peak_rss_bytes() -> int:
    # ru_maxrss is KB on Linux, bytes on macOS
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb * 1024 if sys.platform != "darwin" else kb


def _in_subprocess(fn, *args):
    """Run ``fn(*args)`` in a forked child; return (result, peak_rss, secs).

    The fork gives the stage a private address space, so its
    ``ru_maxrss`` measures *that stage's* memory behavior rather than
    the max over everything the bench did before it.
    """
    ctx = mp.get_context("fork")
    parent, child = ctx.Pipe()

    def runner(conn):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
            conn.send((out, _peak_rss_bytes(), time.perf_counter() - t0))
        except BaseException as exc:  # noqa: BLE001 - relay, then die
            conn.send((("__error__", repr(exc)), 0, 0.0))
            raise
        finally:
            conn.close()

    proc = ctx.Process(target=runner, args=(child,))
    proc.start()
    child.close()
    result, rss, secs = parent.recv()
    proc.join()
    if isinstance(result, tuple) and result and result[0] == "__error__":
        raise RuntimeError(f"stage {fn.__name__} failed: {result[1]}")
    return result, rss, secs


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------
def stage_generate(path: str, n: int, m: int, chunk: int, seed: int) -> dict:
    from repro.graph.io import write_binary_edges, write_binary_header

    rng = resolve_rng(seed)
    with open(path, "wb") as f:
        write_binary_header(f, n, m)
        written = 0
        while written < m:
            take = min(chunk, m - written)
            if written < n - 1:
                # leading block: the connectivity path (i, i+1)
                p = min(take, n - 1 - written)
                u = np.arange(written, written + p, dtype=np.int64)
                v = u + 1
                if p < take:
                    ru = rng.integers(0, n, take - p)
                    rv = rng.integers(0, n, take - p)
                    u, v = np.concatenate([u, ru]), np.concatenate([v, rv])
            else:
                u = rng.integers(0, n, take)
                v = rng.integers(0, n, take)
            w = rng.integers(1, WEIGHT_MAX + 1, take).astype(np.float64)
            write_binary_edges(f, u, v, w)
            written += take
    return {"file_bytes": os.path.getsize(path)}


def stage_ingest(edge_path: str, store_path: str, chunk: int) -> dict:
    from repro.graph.storage import ingest_edgelist_binary

    g, stats = ingest_edgelist_binary(edge_path, store_path, chunk_edges=chunk)
    store_bytes = sum(
        os.path.getsize(os.path.join(store_path, f)) for f in os.listdir(store_path)
    )
    return {
        "n": g.n,
        "m": g.m,
        "num_arcs": g.num_arcs,
        "raw_edges": stats.raw_edges,
        "self_loops": stats.self_loops,
        "merged_duplicates": stats.merged_duplicates,
        "chunks": stats.chunks,
        "store_bytes": store_bytes,
    }


def stage_query(store_path: str) -> dict:
    from repro.graph.storage import load_store
    from repro.kernels.numpy_kernel import INT_INF
    from repro.paths.engine import shortest_paths

    g = load_store(store_path, mmap_mode="r")
    # the store's weights are the integers 1..WEIGHT_MAX: Dial mode
    res = shortest_paths(g, 0, weights=g.weights.astype(np.int64), delta=1)
    reached = res.dist != INT_INF
    return {
        "reached": int(reached.sum()),
        "n": g.n,
        "levels": res.buckets,
        "max_dist": float(res.dist[reached].max()),
    }


def _resume_build(tmpdir: str, kill_at: int | None) -> dict:
    """Child body: seeded checkpointed hopset build, optionally SIGKILLed
    after ``kill_at`` levels (a genuine process death — no cleanup)."""
    from repro.graph import gnm_random_graph, with_random_weights
    from repro.hopsets import build_hopset
    import repro.hopsets.unweighted as hopset_mod

    g = with_random_weights(
        gnm_random_graph(RESUME_N, RESUME_M, seed=101, connected=True), seed=102
    )
    if kill_at is not None:
        orig = hopset_mod.est_cluster_forest
        calls = [0]

        def trigger(*args, **kwargs):
            calls[0] += 1
            if calls[0] > kill_at:
                os.kill(os.getpid(), signal.SIGKILL)
            return orig(*args, **kwargs)

        hopset_mod.est_cluster_forest = trigger
    res = build_hopset(
        g, seed=7, checkpoint_path=os.path.join(tmpdir, "hopset.ckpt.npz")
    )
    order = np.lexsort((res.ew, res.ev, res.eu))
    sig = (
        res.eu[order].tobytes() + res.ev[order].tobytes() + res.ew[order].tobytes()
    )
    import hashlib

    return {"edges": res.size, "sig": hashlib.sha256(sig).hexdigest()}


def stage_resume(tmpdir: str) -> dict:
    """Kill-at-level-k, resume, compare against the uninterrupted build."""
    ctx = mp.get_context("fork")

    def run_child(kill_at):
        parent, child = ctx.Pipe()

        def runner(conn):
            conn.send(_resume_build(tmpdir, kill_at))
            conn.close()

        proc = ctx.Process(target=runner, args=(child,))
        proc.start()
        child.close()
        try:
            out = parent.recv() if parent.poll(600) else None
        except EOFError:
            out = None  # the SIGKILL landed before the result was sent
        proc.join()
        return out, proc.exitcode

    ckpt = os.path.join(tmpdir, "hopset.ckpt.npz")
    uninterrupted, code = run_child(None)
    assert uninterrupted is not None and code == 0
    assert not os.path.exists(ckpt)

    killed, code = run_child(RESUME_KILL_AT)
    assert killed is None, "kill trigger never fired - build too small?"
    assert code == -signal.SIGKILL
    assert os.path.exists(ckpt), "no checkpoint survived the kill"

    resumed, code = run_child(None)
    assert resumed is not None and code == 0
    assert not os.path.exists(ckpt)
    return {
        "kill_after_levels": RESUME_KILL_AT,
        "hopset_edges": uninterrupted["edges"],
        "resumed_equals_uninterrupted": resumed["sig"] == uninterrupted["sig"],
    }


# ----------------------------------------------------------------------
def run_scale_bench(workdir: str) -> dict:
    edge_path = os.path.join(workdir, "edges.bin")
    store_path = os.path.join(workdir, "store")

    gen, gen_rss, gen_secs = _in_subprocess(stage_generate, edge_path, N, M, CHUNK, 42)
    print(f"generate: {gen['file_bytes'] / 1e9:.2f} GB in {gen_secs:.1f}s")

    ing, ing_rss, ing_secs = _in_subprocess(stage_ingest, edge_path, store_path, CHUNK)
    bytes_per_arc = ing_rss / max(ing["num_arcs"], 1)
    print(
        f"ingest: n={ing['n']} m={ing['m']} in {ing_secs:.1f}s, "
        f"peak RSS {ing_rss / 1e9:.2f} GB = {bytes_per_arc:.1f} B/arc"
    )

    qry, qry_rss, qry_secs = _in_subprocess(stage_query, store_path)
    assert qry["reached"] == qry["n"], "path edges must keep the graph connected"
    print(
        f"query: full Dial SSSP reached {qry['reached']}/{qry['n']} in "
        f"{qry_secs:.1f}s, peak RSS {qry_rss / 1e9:.2f} GB"
    )

    res = stage_resume(workdir)
    assert res["resumed_equals_uninterrupted"], "resume diverged from seeded build"
    print(f"resume: SIGKILL after level {res['kill_after_levels']}, bit-identical")

    rss_ok = bytes_per_arc < RSS_CEILING_BYTES_PER_ARC
    payload = {
        "scale": {"n": ing["n"], "m": ing["m"], "num_arcs": ing["num_arcs"]},
        "generate": {"seconds": gen_secs, "file_bytes": gen["file_bytes"]},
        "ingest": {
            "seconds": ing_secs,
            "peak_rss_bytes": ing_rss,
            "bytes_per_arc": bytes_per_arc,
            "store_bytes": ing["store_bytes"],
            "chunks": ing["chunks"],
            "raw_edges": ing["raw_edges"],
            "self_loops": ing["self_loops"],
            "merged_duplicates": ing["merged_duplicates"],
        },
        "query": {
            "seconds": qry_secs,
            "peak_rss_bytes": qry_rss,
            "reached": qry["reached"],
            "levels": qry["levels"],
            "max_dist": qry["max_dist"],
        },
        "resume": res,
        "acceptance": {
            "rss_ceiling_bytes_per_arc": RSS_CEILING_BYTES_PER_ARC,
            "ingest_bytes_per_arc": bytes_per_arc,
            "rss_under_ceiling": rss_ok,
            "resumed_equals_uninterrupted": res["resumed_equals_uninterrupted"],
            # the RSS bar only binds at the full 10^7 scale: a toy run's
            # RSS is all interpreter, not working set
            "passed": bool(res["resumed_equals_uninterrupted"] and (SMOKE or rss_ok)),
        },
        "smoke": SMOKE,
    }
    return payload


def _run_and_record() -> dict:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench_scale_") as workdir:
        payload = run_scale_bench(workdir)
    path = _report.record_json("BENCH_scale.json", payload)
    print(f"wrote {path}")
    _report.record(
        "Out-of-core scale (n=1e7)" if not SMOKE else "Out-of-core scale (smoke)",
        ["stage", "seconds", "peak_rss_gb"],
        stage="ingest",
        seconds=round(payload["ingest"]["seconds"], 1),
        peak_rss_gb=round(payload["ingest"]["peak_rss_bytes"] / 1e9, 2),
    )
    _report.record(
        "Out-of-core scale (n=1e7)" if not SMOKE else "Out-of-core scale (smoke)",
        ["stage", "seconds", "peak_rss_gb"],
        stage="query",
        seconds=round(payload["query"]["seconds"], 1),
        peak_rss_gb=round(payload["query"]["peak_rss_bytes"] / 1e9, 2),
    )
    if not SMOKE:
        assert payload["acceptance"]["rss_under_ceiling"], (
            f"ingest RSS {payload['acceptance']['ingest_bytes_per_arc']:.1f} "
            f"B/arc exceeds the {RSS_CEILING_BYTES_PER_ARC} B/arc ceiling"
        )
    assert payload["acceptance"]["passed"]
    return payload


def test_out_of_core_scale():
    _run_and_record()


def main() -> None:
    _run_and_record()


if __name__ == "__main__":
    main()
