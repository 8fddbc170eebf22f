"""Run the repository benchmark: four workloads, end-to-end and per layer.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py --workload serve-rgg --seed 1
    python3 benchmarks/suite/run.py --workload serve-rgg --trace 1
    python3 benchmarks/suite/run.py --repeats 3           # all four workloads

One workload with one repeat runs in this process.  Anything more runs
each (workload, repeat) in its own fresh child process and summarises
every metric as per-run values, median and quartiles.  Each run prints
every metric by name with its unit, writes its full record (input and
output digests, check failures, raw timings, machine, spans when
traced) under ``bench_results/suite/``, and ends its output with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.

The untraced run reports the end-to-end metrics.  Operation latency is
reported relative to scipy's compiled Dijkstra on the same graph,
sampled in the same run: the reference box's speed drifts by 20-40%
over minutes, and the ratio cancels that drift (absolute times are in
the record).  ``--trace 1`` reports the per-layer metrics instead; it
traces a seeded random half of the operations, so ``trace.overhead_pct``
compares the two halves of one run.  Load is one in-process caller in
a closed loop (the library API is synchronous).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "bench_results", "suite")

WORKLOAD_NAMES = ("sssp-gnm", "serve-rgg", "spanner-gnm", "churn-rgg")
#: measured loop time between two scipy reference searches
REFERENCE_EVERY_S = 0.25
#: an op's latency is divided by the median of this many reference
#: searches nearest to it in time (about 1.25 s of the run)
REFERENCE_WINDOW = 5
#: random stream of the coin that picks the traced operations; far from
#: the streams the workloads draw their inputs from
TRACE_COIN_STREAM = 1 << 32

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_vs_scipy": "ratio",
    "op_p90_vs_scipy": "ratio",
    "throughput_vs_scipy": "ratio",
    "peak_rss_mb": "MB",
    "edges_per_vertex": "ratio",
}

COUNTER_UNITS = {
    "op.kernels.hop_runs": "count",
    "op.kernels.hop_rounds_per_call": "count",
    "op.kernels.hop_arcs_per_run": "count",
    "op.serve.hit_ratio": "ratio",
    "op.serve.invalidated_rows": "count",
    "op.dynamic.dirty_blocks": "count",
    "op.dynamic.rebuilt_edges": "count",
    "op.paths.arcs_relaxed": "count",
    "op.paths.relax_rounds": "count",
    "op.pram.work": "count",
    "op.pram.depth": "count",
    "setup.pram.work": "count",
    "setup.pram.depth": "count",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit."""
    from tracer import OP_SPANS, SETUP_SPANS

    units: Dict[str, str] = {}
    for phase, names in (("setup", SETUP_SPANS), ("op", OP_SPANS)):
        for name in names:
            units[f"{phase}.{name}.self_ms"] = "ms"
            units[f"{phase}.{name}.calls"] = "count"
    units.update(COUNTER_UNITS)
    return units


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine() -> Dict[str, Any]:
    import numpy
    import scipy

    from repro.kernels import HAVE_NUMBA

    uname = os.uname()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "platform": f"{uname.sysname} {uname.release} {uname.machine}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": bool(HAVE_NUMBA),
        "workers": 1,
    }


def percentile(values: Any, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else float("nan")


# ----------------------------------------------------------------------
# one run, in this process
# ----------------------------------------------------------------------
def measure(wl: Any, seconds: float, tracer: Any) -> Dict[str, Any]:
    """The closed loop: one caller, next op as soon as the last returns.

    Runs until ``seconds`` of loop time have passed, not counting checks
    and bookkeeping in ``after`` or the scipy reference searches made
    every :data:`REFERENCE_EVERY_S` of it.  With a tracer, one op of
    each consecutive pair runs traced, a seeded coin picking which: a
    fixed pattern such as every even op would line up with a workload's
    own cycle (round-robin replicas) and put the traced and untraced
    halves on different replicas.  An op that raises counts as failed
    and the loop goes on.
    """
    from workloads import make_rng

    coin = make_rng(wl.seed, TRACE_COIN_STREAM)
    first_traced = False
    plain: Dict[str, List[float]] = {"latency": [], "cycle": [], "at": []}
    traced_lat: List[float] = []
    reference: Dict[str, List[float]] = {"latency": [], "at": []}
    failures: Dict[int, str] = {}
    deltas: Dict[str, float] = {}
    pram = [0, 0]
    excluded = 0.0
    next_reference = 0.0
    i = 0
    start = time.perf_counter()
    while (measured := time.perf_counter() - start - excluded) < seconds:
        if measured >= next_reference:
            t0 = time.perf_counter()
            wl.reference()
            dt = time.perf_counter() - t0
            reference["latency"].append(dt)
            reference["at"].append(measured)
            excluded += dt
            next_reference = measured + REFERENCE_EVERY_S
        cycle0 = time.perf_counter()
        x = wl.next_input(i)
        if tracer is not None and i % 2 == 0:
            first_traced = coin.random() < 0.5
        traced = tracer is not None and first_traced == (i % 2 == 0)
        if traced:
            before = wl.counters()
            work0, depth0 = wl.tracker.work, wl.tracker.depth
            tracer.phase, tracer.op_id = "op", i
            tracer.enable()
        t0 = time.perf_counter()
        try:
            y = wl.op(x, traced)
        except Exception:  # a failed op is a result, not the end of the run
            y, failures[i] = None, traceback.format_exc()
        t1 = time.perf_counter()
        if traced:
            tracer.disable()
            for key, value in wl.counters().items():
                deltas[key] = deltas.get(key, 0) + value - before.get(key, 0)
            pram[0] += wl.tracker.work - work0
            pram[1] += wl.tracker.depth - depth0
            traced_lat.append(t1 - t0)
        else:
            plain["latency"].append(t1 - t0)
            plain["cycle"].append(t1 - cycle0)
            plain["at"].append(measured)
        t0 = time.perf_counter()
        if y is not None:
            for msg in wl.after(i, x, y):
                failures.setdefault(i, msg)
        excluded += time.perf_counter() - t0
        i += 1
    return {
        "ops": i,
        "wall_s": time.perf_counter() - start - excluded,
        "plain": plain,
        "traced": traced_lat,
        "reference": reference,
        "failures": failures,
        "deltas": deltas,
        "pram": pram,
    }


def relative_to_reference(m: Dict[str, Any], key: str) -> Any:
    """Untraced ops' ``key`` times, each divided by the median of the
    :data:`REFERENCE_WINDOW` scipy searches nearest to it in time, so
    that drift in machine speed during the run cancels out."""
    import numpy as np

    ref = np.asarray(m["reference"]["latency"])
    k = min(REFERENCE_WINDOW, ref.shape[0])
    near = np.searchsorted(m["reference"]["at"], m["plain"]["at"]) - k // 2
    lo = np.clip(near, 0, ref.shape[0] - k)
    local = np.array([np.median(ref[j:j + k]) for j in lo])
    return np.asarray(m["plain"][key]) / local


def end_to_end(
    wl: Any, m: Dict[str, Any], setup_s: List[float], rss_mb: float
) -> Dict[str, float]:
    latency = relative_to_reference(m, "latency")
    return {
        "setup_s": statistics.median(setup_s),
        "op_p50_vs_scipy": percentile(latency, 50),
        "op_p90_vs_scipy": percentile(latency, 90),
        # closed loop: ops per scipy search = 1 / mean relative cycle time
        "throughput_vs_scipy": 1.0 / float(relative_to_reference(m, "cycle").mean()),
        "peak_rss_mb": rss_mb,
        "edges_per_vertex": wl.edges_per_vertex(),
    }


def per_layer(
    tracer: Any, m: Dict[str, Any], setups: int, setup_pram: List[int]
) -> Dict[str, float]:
    from tracer import OP_SPANS, SETUP_SPANS

    t = max(len(m["traced"]), 1)
    d = m["deltas"]
    runs, calls = d.get("kernel_runs", 0), d.get("kernel_calls", 0)
    looks = d.get("cache_hits", 0) + d.get("cache_misses", 0)
    out = tracer.summary("setup", SETUP_SPANS, setups)
    out.update(tracer.summary("op", OP_SPANS, t))
    out.update(tracer.paths_counters("op", t))
    out.update({
        "op.kernels.hop_runs": runs / t,
        "op.kernels.hop_rounds_per_call": d.get("rounds", 0) / calls if calls else 0.0,
        "op.kernels.hop_arcs_per_run": d.get("arcs", 0) / runs if runs else 0.0,
        "op.serve.hit_ratio": d.get("cache_hits", 0) / looks if looks else 0.0,
        "op.serve.invalidated_rows": d.get("cache_invalidations", 0) / t,
        "op.dynamic.dirty_blocks": d.get("dirty_blocks", 0) / t,
        "op.dynamic.rebuilt_edges": d.get("rebuilt_edges", 0) / t,
        "op.pram.work": m["pram"][0] / t,
        "op.pram.depth": m["pram"][1] / t,
        "setup.pram.work": setup_pram[0] / setups,
        "setup.pram.depth": setup_pram[1] / setups,
        "trace.overhead_pct": 100.0
        * (percentile(m["traced"], 50) / percentile(m["plain"]["latency"], 50) - 1.0),
    })
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Set up, measure and check one workload; returns its full record."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, trace)
    input_sha = wl.prepare()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    setup_s: List[float] = []
    setup_pram = [0, 0]
    for k in range(wl.SETUPS):
        if tracer is not None:
            tracer.phase, tracer.op_id = "setup", k
            work0, depth0 = wl.tracker.work, wl.tracker.depth
            tracer.enable()
        t0 = time.perf_counter()
        wl.setup(k)
        setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.disable()
            setup_pram[0] += wl.tracker.work - work0
            setup_pram[1] += wl.tracker.depth - depth0
    wl.warm()

    m = measure(wl, seconds, tracer)
    # the program's footprint, before the final checks allocate theirs
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = dict(m["failures"])
    for i, msg in wl.final_checks().items():
        failures.setdefault(i, msg)

    if tracer is None:
        values, units = end_to_end(wl, m, setup_s, rss_mb), END_TO_END_UNITS
    else:
        values, units = per_layer(tracer, m, wl.SETUPS, setup_pram), per_layer_units()
    record = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "n": wl.n,
        "m": int(wl.g.m),
        "input_sha256": input_sha,
        "output_sha256": wl.digest.hexdigest(),
        "ops": m["ops"],
        "attempted": m["ops"],
        "failed": len(failures),
        "fail_frac": len(failures) / m["ops"],
        "failures": {str(i): msg for i, msg in sorted(failures.items())[:5]},
        "absolute": {
            "op_p50_ms": percentile(m["plain"]["latency"], 50) * 1e3,
            "op_p90_ms": percentile(m["plain"]["latency"], 90) * 1e3,
            "ops_per_s": m["ops"] / m["wall_s"],
            "scipy_dijkstra_ms": percentile(m["reference"]["latency"], 50) * 1e3,
        },
        "setup_s_samples": setup_s,
        "op_ms_samples": [t * 1e3 for t in m["plain"]["latency"]],
        "scipy_ms_samples": [t * 1e3 for t in m["reference"]["latency"]],
        "machine": machine(),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    if tracer is not None:
        record["binding_sites"] = tracer.binding_sites
        record["spans"] = tracer.dump()
    return record


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def check_declared(trace: bool, metrics: Dict[str, Dict[str, Any]]) -> None:
    """Refuse to report metrics that drifted from ``BENCHMARK.json``."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in metrics.items()}
    if declared != emitted:
        raise SystemExit(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(emitted))}, "
            f"extra {sorted(set(emitted) - set(declared))}, or a unit changed"
        )


def write_record(record: Dict[str, Any], stem: str) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{stem}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return path


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, Any]) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def single(args: argparse.Namespace) -> int:
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    check_declared(bool(args.trace), record["metrics"])
    path = write_record(record, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    print(
        f"# {args.workload} seed={args.seed} ops={record['ops']} "
        f"failed={record['failed']} input={record['input_sha256'][:16]} "
        f"output={record['output_sha256'][:16]} record={os.path.relpath(path, ROOT)}"
    )
    for msg in record["failures"].values():
        print("# FAILED " + msg.strip().splitlines()[-1])
    for key, value in record["absolute"].items():
        print(f"# {args.workload} {key} {value:.6g}")
    for key, v in record["metrics"].items():
        print(f"{args.workload} {key} {v['value']:.6g} {v['unit']}")
    print(
        result_line(
            record["failed"] == 0, record["attempted"], record["failed"], record["metrics"]
        )
    )
    return 0


def fan_out(args: argparse.Namespace) -> int:
    """Each (workload, repeat) in a fresh child; summarise the repeats."""
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    summary: Dict[str, Any] = {"seed": args.seed, "trace": args.trace, "runs": {}}
    merged: Dict[str, Any] = {}
    ok, attempted, failed = True, 0, 0
    for name in names:
        per_run: List[Dict[str, Any]] = []
        for _ in range(args.repeats):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"# {name}: run exited with status {proc.returncode}", flush=True)
                ok = False
                continue
            print("\n".join(lines[:-1]), flush=True)
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            per_run.append(res["metrics"])
        summary["runs"][name] = stats = summarise(per_run)
        for key, s in stats.items():
            merged[f"{name}.{key}"] = {"value": s["median"], "unit": s["unit"]}
            print(
                f"{name} {key} median={s['median']:.6g} q1={s['q1']:.6g} "
                f"q3={s['q3']:.6g} {s['unit']} (n={len(s['values'])})"
            )
    summary["machine"] = machine()
    write_record(summary, f"summary-seed{args.seed}-trace{args.trace}")
    print(result_line(ok, max(attempted, 1), failed, merged))
    return 0 if ok else 1


def summarise(per_run: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-run values, median and quartiles of every metric."""
    out: Dict[str, Dict[str, Any]] = {}
    for key in per_run[0] if per_run else ():
        values = [r[key]["value"] for r in per_run]
        q1 = q3 = values[0]
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        out[key] = {
            "unit": per_run[0][key]["unit"],
            "values": values,
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
        }
    return out


def parse(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    p.add_argument("--repeats", type=int, default=1)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.repeats < 1:
        p.error("--seconds and --repeats must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"benchmark: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.workload and args.repeats == 1:
        return single(args)
    return fan_out(args)


if __name__ == "__main__":
    sys.exit(main())
