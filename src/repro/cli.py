"""Command-line interface: ``python -m repro.cli <command> ...``.

Commands
--------
``spanner``
    Build a spanner of a generated or loaded graph; print size, stretch,
    and the PRAM ledger; optionally save the spanner as an edge list.
``hopset``
    Build a hopset and answer s-t queries.
``serve``
    Build-or-load a hopset, then serve a stream of s-t queries with
    exact distances through :class:`repro.serve.DistanceServer` (the
    bucket engine on the graph, batched coalescing + LRU source-row
    cache).
``update``
    Replay edge insert/delete lines through
    :meth:`repro.serve.DistanceServer.apply_updates` (localized hopset
    repair, stale cached rows evicted); ``--verify`` checks hopset edge
    validity per batch and sampled served rows against Dijkstra.
``cluster``
    Run one EST clustering and print its statistics.
``cluster-tree``
    Decompose a real graph (e.g. a ``.snap`` snapshot) into a
    hierarchical cluster tree: EST/LDD clustering on a work stack,
    every cluster validated against a pluggable requirement, failures
    reclustered recursively; JSON and newick export.
``sssp``
    Run the bucket-parallel shortest-path engine from a source and
    print distances, bucket structure, and the PRAM ledger; ``--check``
    compares the distances with scipy's Dijkstra.
``connectivity``
    Count connected components by iterated EST contraction and check
    the count against scipy.
``sparsify``
    Sparsify a graph by iterated spanner peeling; optionally save the
    result as an edge list.
``generate``
    Emit a synthetic graph as an edge list.
``ingest``
    Stream a text or binary edge list into a store directory that
    ``-i`` then loads memmap-backed.

Every search runs the numpy bucket kernels serially (see
:mod:`repro.paths.engine`); there is no kernel or core-count option.

Library errors (:class:`repro.errors.ReproError`) print ``error:
<message>`` to stderr instead of a traceback: a failed verification
exits 1, bad input or parameters exit 2.  A missing or unreadable input
file and a malformed query or update line exit 2 the same way.

Examples::

    python -m repro.cli generate --kind grid --rows 30 --cols 30 -o g.txt
    python -m repro.cli spanner -i g.txt -k 3 --seed 1
    python -m repro.cli hopset -i g.txt --query 0 899
    python -m repro.cli cluster -i g.txt --beta 0.2
    python -m repro.cli sssp -i g.txt --source 0 --check
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from repro.graph import (
    barabasi_albert_graph,
    gnm_random_graph,
    grid_graph,
    random_geometric_graph,
    with_random_weights,
)
from repro.graph.io import load_edgelist, save_edgelist
from repro.pram import PramTracker


def _load_graph(args: argparse.Namespace) -> "object":
    if args.input:
        import os

        path = args.input
        if os.path.isdir(path):
            from repro.graph.storage import load_store

            # a store directory: memmap-backed unless --no-mmap
            mode = None if getattr(args, "no_mmap", False) else "r"
            return load_store(path, mmap_mode=mode)
        if path.endswith(".npz"):
            from repro.graph.io import load_npz

            return load_npz(path)
        if path.endswith(".snap"):
            from repro.graph.io import load_snap

            g, _ = load_snap(path)
            return g
        if path.endswith(".bin"):
            from repro.graph.io import load_edgelist_binary

            return load_edgelist_binary(path)
        return load_edgelist(path)
    return gnm_random_graph(args.n, args.m, seed=args.seed, connected=True)


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "-i",
        "--input",
        help="input graph: edge list (.txt), binary edge list (.bin), "
        ".npz archive, or a store directory written by `repro ingest` "
        "(otherwise a G(n,m) is generated)",
    )
    p.add_argument(
        "--no-mmap",
        action="store_true",
        help="load store-directory inputs eagerly instead of memmap-backed",
    )
    p.add_argument("--n", type=int, default=1000, help="vertices for generated input")
    p.add_argument("--m", type=int, default=5000, help="edges for generated input")
    p.add_argument("--seed", type=int, default=0)


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "grid":
        g = grid_graph(args.rows, args.cols)
    elif args.kind == "gnm":
        g = gnm_random_graph(args.n, args.m, seed=args.seed, connected=True)
    elif args.kind == "ba":
        g = barabasi_albert_graph(args.n, 3, seed=args.seed)
    elif args.kind == "rgg":
        g = random_geometric_graph(args.n, args.radius, seed=args.seed)
    else:
        print(f"unknown kind {args.kind}", file=sys.stderr)
        return 2
    if args.weights:
        g = with_random_weights(g, 1.0, args.max_weight, "loguniform", seed=args.seed + 1)
    save_edgelist(g, args.output)
    print(f"wrote {args.output}: n={g.n} m={g.m}")
    return 0


def cmd_spanner(args: argparse.Namespace) -> int:
    from repro.spanners import max_edge_stretch, unweighted_spanner, weighted_spanner

    g = _load_graph(args)
    t = PramTracker(n=g.n)
    if g.is_unweighted:
        sp = unweighted_spanner(g, args.k, seed=args.seed, tracker=t)
    else:
        sp = weighted_spanner(g, args.k, seed=args.seed, tracker=t)
    stretch = max_edge_stretch(g, sp, sample_edges=min(g.m, 2000), seed=1)
    print(f"graph: n={g.n} m={g.m} {'unweighted' if g.is_unweighted else 'weighted'}")
    print(f"spanner: {sp.size} edges ({100 * sp.size / max(g.m, 1):.1f}% kept)")
    print(f"stretch: measured {stretch:.2f}, certified {sp.stretch_bound:.0f}")
    print(f"pram: work={t.work} depth={t.depth}")
    if args.output:
        save_edgelist(sp.subgraph(), args.output)
        print(f"wrote spanner to {args.output}")
    return 0


def cmd_hopset(args: argparse.Namespace) -> int:
    from repro.hopsets import HopsetParams, build_hopset, exact_distance, hopset_distance

    g = _load_graph(args)
    params = HopsetParams(epsilon=args.epsilon, delta=1.5, gamma1=0.15, gamma2=0.5)
    t = PramTracker(n=g.n)
    hs = build_hopset(g, params, seed=args.seed, tracker=t)
    print(f"graph: n={g.n} m={g.m}")
    print(f"hopset: {hs.size} edges ({hs.star_count} star, {hs.clique_count} clique)")
    print(f"pram: work={t.work} depth={t.depth}")
    if args.query:
        s, tt = args.query
        true = exact_distance(g, s, tt)
        est, hops = hopset_distance(hs, s, tt)
        # a ratio needs a finite, positive exact distance
        ratio = f" ({est / true:.4f}x)" if 0 < true < np.inf else ""
        print(f"query {s}->{tt}: exact={true} estimate={est}{ratio} hops={hops}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.hopsets import HopsetParams, build_hopset
    from repro.serve import DistanceServer, load_hopset, save_hopset

    g = _load_graph(args)
    if args.hopset and os.path.exists(args.hopset):
        hs = load_hopset(g, args.hopset)
        print(f"loaded hopset: {args.hopset} ({hs.size} edges)")
    else:
        params = HopsetParams(epsilon=args.epsilon, delta=1.5, gamma1=0.15, gamma2=0.5)
        hs = build_hopset(g, params, seed=args.seed)
        print(f"built hopset: {hs.size} edges")
        if args.hopset:
            save_hopset(hs, args.hopset)
            print(f"saved hopset to {args.hopset}")

    server = DistanceServer(hs, cache_rows=args.cache_rows)
    print(f"graph: n={g.n} m={g.m}; serving exact distances with "
          f"cache_rows={args.cache_rows}")

    if args.queries and args.queries != "-":
        with open(args.queries, "r", encoding="utf-8") as f:
            lines = f.readlines()
    else:
        lines = sys.stdin.readlines()
    pairs = []
    for line in lines:
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except (IndexError, ValueError):
            print(f"error: malformed query line {line.rstrip()!r}", file=sys.stderr)
            return 2

    # the coalescing front door: answer the stream in --batch chunks
    for lo in range(0, len(pairs), max(args.batch, 1)):
        chunk = pairs[lo : lo + max(args.batch, 1)]
        dists = server.query_batch(chunk)
        for (s, t), d in zip(chunk, dists):
            print(f"{s} {t} {d:g}")
    st = server.stats
    print(
        f"served {st.queries} queries in {st.batches} batches: "
        f"{st.kernel_runs} kernel runs over {st.kernel_calls} calls, "
        f"{st.cache_hits} cache hits / {st.cache_misses} misses "
        f"({st.cache_evictions} evictions), {st.rounds} rounds, "
        f"{st.arcs} arcs relaxed"
    )
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    from repro.dynamic import UpdateBatch
    from repro.hopsets import HopsetParams, build_hopset
    from repro.serve import DistanceServer

    g = _load_graph(args)
    params = HopsetParams(epsilon=args.epsilon, delta=1.5, gamma1=0.15, gamma2=0.5)
    hs = build_hopset(g, params, seed=args.seed, record_structure=True)
    server = DistanceServer(hs, cache_rows=args.cache_rows)
    print(f"graph: n={g.n} m={g.m}; hopset: {hs.size} edges "
          f"({hs.structure.num_blocks} repair blocks)")

    if args.updates and args.updates != "-":
        with open(args.updates, "r", encoding="utf-8") as f:
            lines = f.readlines()
    else:
        lines = sys.stdin.readlines()
    ops = []
    for line in lines:
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            if parts[0] == "i" and len(parts) == 4:
                ops.append(("i", (int(parts[1]), int(parts[2]), float(parts[3]))))
                continue
            if parts[0] == "d" and len(parts) == 3:
                ops.append(("d", (int(parts[1]), int(parts[2]))))
                continue
        except ValueError:
            pass
        print(f"error: malformed update line {line.rstrip()!r} "
              "(want 'i u v w' or 'd u v')", file=sys.stderr)
        return 2

    chunk_size = max(args.batch, 1)
    for lo in range(0, len(ops), chunk_size):
        chunk = ops[lo : lo + chunk_size]
        inserts = [t for kind, t in chunk if kind == "i"]
        deletes = [t for kind, t in chunk if kind == "d"]
        batch = UpdateBatch.from_tuples(inserts, deletes)
        info = server.apply_updates(batch)
        print(
            f"batch {lo // chunk_size}: +{info['inserted']} -{info['deleted']} "
            f"~{info['weight_changed']} -> {info['rebuilt_blocks']}/"
            f"{info['dirty_blocks']} blocks rebuilt "
            f"({info['rebuilt_edges']} edges, {info['kept_edges']} kept), "
            f"{info['invalidated_rows']} cached rows invalidated"
        )
        if args.verify:
            # Definition 2.4 item 2 only: every shortcut is a real path
            server.hopset.verify_edge_weights()
    if args.verify:
        from scipy.sparse.csgraph import dijkstra as sp_dijkstra

        from repro.rng import resolve_rng

        rng = resolve_rng(args.seed)
        srcs = rng.choice(server.hopset.graph.n, size=min(4, g.n), replace=False)
        D = sp_dijkstra(
            server.hopset.graph.to_scipy(), directed=False, indices=srcs
        )
        for i, s in enumerate(srcs):
            if not np.allclose(server.distance_row(int(s)), D[i], rtol=1e-9):
                print(f"error: served row {s} diverges from Dijkstra",
                      file=sys.stderr)
                return 1
        print(f"verified: hopset edge validity (Definition 2.4 item 2) "
              f"after every batch; {len(srcs)} served rows equal Dijkstra")
    st = server.stats
    print(f"stats: {st.cache_invalidations} invalidations, "
          f"{st.cache_hits} hits / {st.cache_misses} misses")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from repro.graph.storage import (
        DEFAULT_CHUNK_EDGES,
        ingest_edgelist,
        ingest_edgelist_binary,
    )

    ingest = ingest_edgelist_binary if args.input.endswith(".bin") else ingest_edgelist
    chunk = args.chunk_edges or DEFAULT_CHUNK_EDGES
    g, stats = ingest(args.input, args.output, chunk_edges=chunk)
    print(
        f"ingested {args.input} -> {args.output}: n={g.n} m={g.m} "
        f"(raw={stats.raw_edges}, self_loops={stats.self_loops}, "
        f"merged={stats.merged_duplicates}, chunks={stats.chunks})"
    )
    return 0


def cmd_connectivity(args: argparse.Namespace) -> int:
    from repro.graph import connected_components
    from repro.graph.parallel_connectivity import parallel_connectivity

    g = _load_graph(args)
    t = PramTracker(n=g.n)
    ncc, labels, rounds = parallel_connectivity(g, beta=args.beta, seed=args.seed, tracker=t)
    ncc_ref, _ = connected_components(g)
    print(f"graph: n={g.n} m={g.m}")
    print(f"components: {ncc} (oracle {ncc_ref}, {'match' if ncc == ncc_ref else 'MISMATCH'})")
    print(f"contraction rounds: {rounds}")
    print(f"pram: work={t.work} depth={t.depth}")
    return 0 if ncc == ncc_ref else 1


def cmd_sparsify(args: argparse.Namespace) -> int:
    from repro.graph import is_connected
    from repro.spanners.sparsify import spanner_sparsify

    g = _load_graph(args)
    res = spanner_sparsify(g, k=args.k, bundle=args.bundle, rounds=args.rounds, seed=args.seed)
    print(f"graph: n={g.n} m={g.m}")
    print(f"size trajectory: {res.sizes}")
    print(f"final: {res.graph.m} edges ({100 * res.graph.m / max(g.m, 1):.1f}%), "
          f"connected={is_connected(res.graph)}")
    if args.output:
        save_edgelist(res.graph, args.output)
        print(f"wrote sparsifier to {args.output}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.clustering import cluster_radii, cut_fraction, est_cluster

    g = _load_graph(args)
    c = est_cluster(g, args.beta, seed=args.seed)
    radii = cluster_radii(c)
    print(f"graph: n={g.n} m={g.m}")
    print(f"clusters: {c.num_clusters} (sizes: max={int(c.sizes.max())}, median={int(np.median(c.sizes))})")
    print(f"max radius: {radii.max():.1f} (Lemma 2.1 bound {2 * np.log(max(g.n, 2)) / args.beta:.1f})")
    print(f"cut fraction: {cut_fraction(g, c):.4f}")
    return 0


def cmd_cluster_tree(args: argparse.Namespace) -> int:
    import time

    from repro.ctree import build_cluster_tree

    g = _load_graph(args)
    t0 = time.perf_counter()
    tree = build_cluster_tree(
        g,
        args.requirement,
        clusterer=args.clusterer,
        beta=args.beta,
        seed=args.seed,
        min_size=args.min_size,
        max_depth=args.max_depth,
        checkpoint_path=args.checkpoint,
    )
    seconds = time.perf_counter() - t0
    tree.validate()
    leaves = tree.leaves()
    forced = sum(1 for leaf in leaves if leaf.forced)
    sizes = sorted((leaf.size for leaf in leaves), reverse=True)
    print(f"graph: n={g.n} m={g.m}")
    print(
        f"tree: {tree.num_nodes} nodes, {len(leaves)} leaves, "
        f"depth {tree.depth()} ({seconds:.2f}s)"
    )
    print(
        f"leaves: max size {sizes[0] if sizes else 0}, "
        f"median {sizes[len(sizes) // 2] if sizes else 0}, {forced} forced"
    )
    print(
        f"requirement {tree.requirement}: "
        f"{'all leaves satisfied' if tree.all_leaves_satisfied() else 'UNSATISFIED leaves present'}"
    )
    if args.json:
        tree.save_json(args.json)
        print(f"wrote JSON tree to {args.json}")
    if args.newick:
        tree.save_newick(args.newick)
        print(f"wrote newick tree to {args.newick}")
    return 0 if tree.all_leaves_satisfied() else 1


def cmd_sssp(args: argparse.Namespace) -> int:
    from repro.paths.engine import shortest_paths

    g = _load_graph(args)
    t = PramTracker(n=g.n)
    res = shortest_paths(g, args.source, delta=args.delta, tracker=t)
    if res.dist.dtype.kind == "f":
        finite = np.isfinite(res.dist)
    else:
        finite = res.dist < np.iinfo(np.int64).max
    reached = int(finite.sum())
    print(f"graph: n={g.n} m={g.m} {'unweighted' if g.is_unweighted else 'weighted'}")
    print(f"engine: delta={res.delta:g}")
    print(
        f"sssp from {args.source}: reached {reached}/{g.n}, "
        f"max dist {float(res.dist[finite].max()) if reached else float('inf'):g}"
    )
    print(
        f"schedule: {res.buckets} buckets, {res.relax_rounds} relaxation rounds, "
        f"{res.arcs_relaxed} arcs relaxed"
    )
    print(f"pram: work={t.work} depth={t.depth} rounds={t.rounds}")
    if args.check:
        from repro.paths.dijkstra import dijkstra_scipy

        oracle = dijkstra_scipy(g, args.source)
        mine = np.where(finite, res.dist.astype(np.float64), np.inf)
        ok = np.allclose(mine, oracle, equal_nan=True)
        print(f"oracle check: {'match' if ok else 'MISMATCH'}")
        return 0 if ok else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic graph")
    p.add_argument("--kind", choices=["grid", "gnm", "ba", "rgg"], default="gnm")
    p.add_argument("--rows", type=int, default=30)
    p.add_argument("--cols", type=int, default=30)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--m", type=int, default=5000)
    p.add_argument("--radius", type=float, default=0.05)
    p.add_argument("--weights", action="store_true", help="attach log-uniform weights")
    p.add_argument("--max-weight", type=float, default=1024.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("spanner", help="build a spanner")
    _add_io_args(p)
    p.add_argument("-k", type=float, default=3.0, help="stretch parameter")
    p.add_argument("-o", "--output", help="write the spanner edge list here")
    p.set_defaults(fn=cmd_spanner)

    p = sub.add_parser("hopset", help="build a hopset (and query)")
    _add_io_args(p)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--query", type=int, nargs=2, metavar=("S", "T"))
    p.set_defaults(fn=cmd_hopset)

    # no prefix matching: a removed flag that abbreviates --hopset
    # would otherwise write a hopset file named after its value
    p = sub.add_parser(
        "serve", help="serve exact distance queries", allow_abbrev=False
    )
    _add_io_args(p)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument(
        "--hopset",
        help="hopset npz path: loaded when it exists, otherwise built and "
        "saved here (omit to rebuild every invocation)",
    )
    p.add_argument(
        "--queries",
        help="file of 's t' query lines ('-' or omitted reads stdin; "
        "'#' lines are comments)",
    )
    p.add_argument("--cache-rows", type=int, default=128,
                   help="LRU capacity for hot source distance rows")
    p.add_argument("--batch", type=int, default=256,
                   help="coalesce up to this many queries per engine call")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "update",
        help="apply edge insert/delete batches to a served hopset "
        "(localized repair)",
    )
    _add_io_args(p)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument(
        "--updates",
        help="file of update lines: 'i u v w' inserts (or re-weights) an "
        "edge, 'd u v' deletes one ('-' or omitted reads stdin; '#' "
        "lines are comments)",
    )
    p.add_argument("--cache-rows", type=int, default=128,
                   help="LRU capacity for hot source distance rows")
    p.add_argument("--batch", type=int, default=256,
                   help="apply up to this many update lines per repair pass")
    p.add_argument("--verify", action="store_true",
                   help="check hopset edge validity after every batch, then "
                   "that sampled served rows equal Dijkstra (test-scale only)")
    p.set_defaults(fn=cmd_update)

    p = sub.add_parser("cluster", help="run one EST clustering")
    _add_io_args(p)
    p.add_argument("--beta", type=float, default=0.2)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser(
        "cluster-tree",
        help="decompose a real graph into a validated cluster tree",
    )
    _add_io_args(p)
    p.add_argument(
        "--requirement",
        default="wellconnected",
        help="cluster validity requirement: conductance:PHI, degree:K, "
        "or wellconnected[:SCALE] (default)",
    )
    p.add_argument(
        "--clusterer",
        choices=["est", "ldd"],
        default="est",
        help="decomposition engine per expansion: one EST race (default) "
        "or the certified low-diameter wrapper",
    )
    p.add_argument("--beta", type=float, default=0.25)
    p.add_argument(
        "--min-size",
        type=int,
        default=1,
        help="clusters at or below this size become leaves even when "
        "unsatisfied (flagged 'forced')",
    )
    p.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="cap the recursion depth (unsatisfied leaves are flagged)",
    )
    p.add_argument(
        "--checkpoint",
        help="work-stack checkpoint path: a killed run resumes to the "
        "bit-identical tree",
    )
    p.add_argument("--json", help="write the full tree (stats + vertices) here")
    p.add_argument("--newick", help="write the newick topology here")
    p.set_defaults(fn=cmd_cluster_tree)

    p = sub.add_parser("sssp", help="run the bucket shortest-path engine")
    _add_io_args(p)
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--delta", type=float, default=None, help="bucket width (default: heuristic)")
    p.add_argument("--check", action="store_true", help="verify against the scipy oracle")
    p.set_defaults(fn=cmd_sssp)

    p = sub.add_parser("connectivity", help="parallel connectivity by EST contraction")
    _add_io_args(p)
    p.add_argument("--beta", type=float, default=0.2)
    p.set_defaults(fn=cmd_connectivity)

    p = sub.add_parser("sparsify", help="iterated spanner-peeling sparsification")
    _add_io_args(p)
    p.add_argument("-k", type=float, default=3.0)
    p.add_argument("--bundle", type=int, default=2)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("-o", "--output", help="write the sparsifier edge list here")
    p.set_defaults(fn=cmd_sparsify)

    p = sub.add_parser(
        "ingest",
        help="stream an edge list into a memmap-ready store directory",
    )
    p.add_argument("input", help="text (.txt) or binary (.bin) edge list")
    p.add_argument("output", help="store directory to create")
    p.add_argument(
        "--chunk-edges",
        type=int,
        default=None,
        help="edges per streaming chunk (default 4M)",
    )
    p.set_defaults(fn=cmd_ingest)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    from repro.errors import ReproError, VerificationError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        # a failed check exits 1 like a row mismatch; bad input or
        # parameters exit 2 like a malformed line
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, VerificationError) else 2
    except OSError as exc:
        # a missing or unreadable -i / --queries / --updates file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
