"""Serving tier tests: frontier h-hop kernel, DistanceServer, CLI.

Three layers are pinned here:

* the frontier-based hop-limited kernel behind every h-hop query is
  label-identical to dense synchronous Bellman–Ford (the
  `dense_hop_distances` oracle) for every budget, single- or
  multi-source, on plain graphs and on hopset unions — and exact
  against Dijkstra at full convergence;
* `DistanceServer` semantics: rows are exact on every engine kernel,
  batched answers equal singleton answers, the LRU source-row cache
  hits/evicts as documented, the coalescing front door preserves
  request order, and the union CSR is never compiled;
* the `serve` CLI contract: build-or-load, query files/stdin, stats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import arcs_from_graph, combine_arcs, dense_hop_distances, engine_kernel
from repro import cli
from repro.checkpoint import graph_fingerprint
from repro.errors import ParameterError
from repro.graph import (
    from_edges,
    gnm_random_graph,
    grid_graph,
    random_geometric_graph,
    with_random_weights,
)
from repro.graph.csr import csr_from_arrays
from repro.hopsets import HopsetParams, build_hopset
from repro.kernels.numpy_kernel import hop_sssp_batch
from repro.paths import hop_limited_distances
from repro.paths.dijkstra import dijkstra_scipy
from repro.pram import PramTracker
from repro.serve import DistanceServer, ServerStats, load_hopset, save_hopset

PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5)


def _random_weighted(n, m, seed):
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    return with_random_weights(g, 1.0, 9.0, "uniform", seed=seed + 1)


def _csr(g):
    return g.indptr, g.indices, g.weights


def _disconnected_int_graph():
    """Two components plus isolated vertices, int64 weights (Dial)."""
    a = gnm_random_graph(40, 100, seed=3, connected=True)
    b = gnm_random_graph(30, 70, seed=4, connected=True)
    edges = np.concatenate([
        np.stack([a.edge_u, a.edge_v], axis=1),
        np.stack([b.edge_u, b.edge_v], axis=1) + 40,
    ])
    w = np.random.default_rng(0).integers(1, 9, edges.shape[0])
    f = from_edges(75, edges, w)
    return csr_from_arrays(
        f.n, f.indptr, f.indices, f.weights.astype(np.int64), f.edge_ids,
        f.edge_u, f.edge_v, f.edge_w.astype(np.int64),
    )


@pytest.fixture(scope="module")
def served():
    g = _random_weighted(120, 360, seed=5)
    hs = build_hopset(g, PARAMS, seed=11)
    return g, hs


# ----------------------------------------------------------------------
# frontier kernel vs dense Bellman-Ford vs Dijkstra
# ----------------------------------------------------------------------
class TestFrontierKernel:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        h=st.integers(1, 40),
        src=st.integers(0, 59),
        union=st.booleans(),
    )
    def test_matches_dense_bellman_ford(self, seed, h, src, union):
        # the front door against the dense oracle on the same arcs: G
        # alone, or G plus a hopset drawn on it (the union compile keeps
        # parallel and duplicate arcs)
        g = _random_weighted(60, 150, seed)
        arcs = arcs_from_graph(g)
        csr = _csr(g)
        if union:
            hs = build_hopset(g, PARAMS, seed=seed)
            arcs = combine_arcs(arcs, hs.eu, hs.ev, hs.ew)
            csr = hs.union_csr()
        dt, ft = PramTracker(n=g.n), PramTracker(n=g.n)
        dd, dh, drounds = dense_hop_distances(arcs, np.array([src]), h, dt)
        fd, fh, frounds = hop_limited_distances(csr, np.array([src]), h, ft)
        assert np.allclose(dd, fd, equal_nan=True)
        assert np.array_equal(dh, fh)
        assert drounds == frounds == ft.rounds == dt.rounds
        assert ft.work <= dt.work
        if frounds < h:
            # converged: full-budget answer is the exact distance
            assert np.allclose(fd, dijkstra_scipy(g, src))

    def test_multi_source_run(self):
        g = _random_weighted(40, 100, seed=3)
        srcs = np.array([0, 5, 9])
        dd, dh, _ = dense_hop_distances(arcs_from_graph(g), srcs, 10)
        fd, fh, _ = hop_limited_distances(_csr(g), srcs, 10)
        assert np.allclose(dd, fd, equal_nan=True)
        assert np.array_equal(dh, fh)

    def test_round_arcs_is_the_ledger(self):
        # a path relaxes one new vertex per round; charged arcs are the
        # frontier's out-degrees, not the whole arc set
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        indptr, indices, w = _csr(g)
        _, _, round_arcs = hop_sssp_batch(indptr, indices, w, np.array([0]), 100)
        assert round_arcs == [1, 2, 2, 1]  # deg(0), deg(1), deg(2), deg(3)

    def test_empty_sources_and_empty_graph(self):
        indptr = np.zeros(4, dtype=np.int64)
        empty_i = np.empty(0, dtype=np.int64)
        empty_w = np.empty(0, dtype=np.float64)
        d, h, ra = hop_sssp_batch(indptr, empty_i, empty_w, empty_i, 5)
        assert d.shape == (3,) and np.isinf(d).all() and not ra

# ----------------------------------------------------------------------
# DistanceServer
# ----------------------------------------------------------------------
class TestDistanceServer:
    def test_exact_at_convergence(self, served):
        g, hs = served
        srv = DistanceServer(hs)
        for s in (0, 17, 63):
            assert np.allclose(srv.distance_row(s), dijkstra_scipy(g, s))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_batched_equals_singleton(self, served, seed):
        g, hs = served
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, g.n, size=(12, 2))
        batched = DistanceServer(hs).query_batch(pairs)
        single_srv = DistanceServer(hs, cache_rows=0)
        singles = np.array([single_srv.query(s, t) for s, t in pairs])
        assert np.array_equal(batched, singles)
        # cache off: every singleton query paid its own kernel run
        assert single_srv.stats.kernel_runs == len(pairs)

    def test_exact_rows_integer_weights_disconnected(self):
        # the engine runs Dial, and rows still come back float64 with
        # inf (not INT_INF) where a source cannot reach
        g = _disconnected_int_graph()
        srv = DistanceServer(build_hopset(g, PARAMS, seed=1))
        sources = [0, 45, 72]
        D = srv.distances(sources)
        assert D.dtype == np.float64
        for row, s in zip(D, sources):
            want = dijkstra_scipy(g, s)
            assert np.isinf(want).any()
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("kind", ["unit", "float", "disconnected_int"])
    def test_reference_backend_serves_exact_rows(self, kind):
        # exact serving is kernel-independent: the server run on the
        # heapq oracle kernel returns the same rows as numpy and scipy
        g = {
            "unit": lambda: gnm_random_graph(80, 240, seed=7, connected=True),
            "float": lambda: _random_weighted(90, 300, seed=8),
            "disconnected_int": _disconnected_int_graph,
        }[kind]()
        hs = build_hopset(g, PARAMS, seed=2)
        sources = [0, 41, g.n - 1]
        with engine_kernel("reference"):
            D = DistanceServer(hs).distances(sources)
        assert D.dtype == np.float64
        assert np.array_equal(D, DistanceServer(hs).distances(sources))
        with pytest.raises(ParameterError, match="unknown backend"):
            DistanceServer(hs, backend="reference")
        for row, s in zip(D, sources):
            assert np.allclose(row, dijkstra_scipy(g, s))

    def test_exact_server_never_compiles_union(self, served):
        from repro.dynamic import UpdateBatch

        g, _ = served
        hs = build_hopset(g, PARAMS, seed=11, record_structure=True)
        srv = DistanceServer(hs)
        srv.query_batch([(0, 5), (9, 2)])
        srv.apply_updates(UpdateBatch.from_tuples(inserts=[(0, 70, 1.5)]))
        srv.query_batch([(0, 5), (3, 2)])
        for h in (hs, srv.hopset):
            assert "_union_csr" not in h.__dict__

    def test_front_door_ordering_with_duplicates(self, served):
        g, hs = served
        srv = DistanceServer(hs)
        pairs = [(9, 1), (2, 5), (9, 8), (2, 5), (0, 9)]
        out = srv.query_batch(pairs)
        expect = [srv.query(s, t) for s, t in pairs]
        assert list(out) == expect
        # 5 queries, 3 distinct sources, one coalesced kernel call
        assert srv.stats.kernel_runs == 3
        assert srv.stats.kernel_calls == 1  # singletons after all hit the cache
        assert srv.stats.cache_hits == len(pairs)

    def test_lru_hit_and_eviction(self, served):
        _, hs = served
        srv = DistanceServer(hs, cache_rows=2)
        srv.query(0, 1)
        srv.query(1, 2)
        assert srv.stats.cache_misses == 2 and srv.stats.cache_hits == 0
        srv.query(0, 5)  # hit; 0 becomes most recent
        assert srv.stats.cache_hits == 1
        srv.query(2, 3)  # evicts 1 (LRU)
        assert srv.stats.cache_evictions == 1
        assert srv.cached_sources() == [0, 2]
        srv.query(1, 4)  # miss again
        assert srv.stats.cache_misses == 4

    def test_chunked_coalescing(self, served, monkeypatch):
        g, hs = served
        # a label budget of two rows makes the derived chunk two runs
        monkeypatch.setattr("repro.serve.server.CHUNK_LABELS", 2 * g.n)
        srv = DistanceServer(hs)
        srv.query_batch([(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)])
        assert srv.stats.kernel_runs == 5
        assert srv.stats.kernel_calls == 3  # ceil(5 / 2)

    def test_distances_matrix(self, served):
        g, hs = served
        srv = DistanceServer(hs)
        D = srv.distances([3, 8, 3])
        assert D.shape == (3, g.n)
        assert np.array_equal(D[0], D[2])
        assert np.allclose(D[1], dijkstra_scipy(g, 8))

    def test_tracker_charged(self, served):
        g, hs = served
        t = PramTracker(n=g.n, depth_per_round=1)
        srv = DistanceServer(hs, tracker=t)
        srv.query(0, 1)
        assert t.rounds == srv.stats.rounds > 0
        assert t.work == srv.stats.arcs > 0

    def test_parameter_validation(self, served):
        g, hs = served
        with pytest.raises(ParameterError):
            DistanceServer(hs, cache_rows=-1)
        srv = DistanceServer(hs)
        with pytest.raises(ParameterError):
            srv.query(-1, 0)
        with pytest.raises(ParameterError):
            srv.query(0, g.n)
        with pytest.raises(ParameterError):
            srv.query_batch([(0, g.n)])

    def test_empty_batch(self, served):
        _, hs = served
        srv = DistanceServer(hs)
        assert srv.query_batch([]).shape == (0,)
        assert srv.query_batch(np.empty((0, 2), dtype=np.int64)).shape == (0,)
        assert srv.distances([]).shape == (0, hs.graph.n)

    def test_query_batch_refuses_triples(self, served):
        # reshape(-1, 2) once answered these as (0,1), (2,3) and (4,5)
        _, hs = served
        srv = DistanceServer(hs)
        with pytest.raises(ParameterError, match="pairs"):
            srv.query_batch([(0, 1, 2), (3, 4, 5)])
        assert srv.stats.kernel_runs == 0

    def test_query_batch_refuses_flat_ids(self, served):
        # an odd-length flat list failed inside numpy's reshape
        _, hs = served
        srv = DistanceServer(hs)
        with pytest.raises(ParameterError, match="pairs"):
            srv.query_batch([1, 2, 3])
        with pytest.raises(ParameterError, match="pairs"):
            srv.query_batch([1, 2])

    def test_stats_as_dict_roundtrip(self):
        st_ = ServerStats(queries=3, cache_hits=1)
        d = st_.as_dict()
        assert d["queries"] == 3 and d["cache_hits"] == 1


# ----------------------------------------------------------------------
# persistence + CLI
# ----------------------------------------------------------------------
class TestPersistenceAndCLI:
    def test_save_load_roundtrip(self, served, tmp_path):
        g, hs = served
        path = str(tmp_path / "hs.npz")
        save_hopset(hs, path)
        hs2 = load_hopset(g, path)
        assert hs2.size == hs.size
        assert np.array_equal(hs2.eu, hs.eu)
        assert np.array_equal(hs2.ew, hs.ew)
        assert hs2.meta == hs.meta

    def test_load_wrong_graph_rejected(self, served, tmp_path):
        g, hs = served
        path = str(tmp_path / "hs.npz")
        save_hopset(hs, path)
        # same n, one edge deleted: the file must not load silently
        one_less = from_edges(
            g.n, np.stack([g.edge_u[1:], g.edge_v[1:]], axis=1),
            weights=g.edge_w[1:],
        )
        for other in (grid_graph(3, 3), one_less):
            with pytest.raises(ParameterError, match="built for"):
                load_hopset(other, path)

    def test_load_refuses_one_reweighted_edge(self, tmp_path):
        # the fingerprint once hashed ~256 sampled entries per edge
        # array; edge 80 was not among them, so this hopset loaded and
        # answered 1.378 for a pair whose true distance is 12.04
        g = with_random_weights(
            gnm_random_graph(300, 1200, seed=1, connected=True), 1.0, 10.0,
            "uniform", seed=2,
        )
        hs = build_hopset(g, HopsetParams(0.5, 1.5, 0.15, 0.5), seed=1)
        path = str(tmp_path / "hs.npz")
        save_hopset(hs, path)
        w = g.edge_w.copy()
        w[80] *= 1000.0
        heavier = from_edges(g.n, np.stack([g.edge_u, g.edge_v], axis=1), weights=w)
        assert graph_fingerprint(heavier) != graph_fingerprint(g)
        with pytest.raises(ParameterError, match="built for"):
            load_hopset(heavier, path)

    def test_load_unfingerprinted_file_rejected(self, served, tmp_path):
        # the pre-fingerprint layout recorded only n, which matches here
        g, hs = served
        path = str(tmp_path / "legacy.npz")
        np.savez(path, n=np.int64(g.n), eu=hs.eu, ev=hs.ev, ew=hs.ew,
                 kind=hs.kind, meta=np.array("{}"))
        with pytest.raises(ParameterError, match="built for an unrecorded graph"):
            load_hopset(g, path)

    def test_cli_build_then_load(self, tmp_path, capsys):
        from repro.graph.io import save_edgelist

        g = grid_graph(8, 8)
        gpath = str(tmp_path / "g.txt")
        save_edgelist(g, gpath)
        hpath = str(tmp_path / "hs.npz")
        qpath = str(tmp_path / "q.txt")
        with open(qpath, "w", encoding="utf-8") as f:
            f.write("# header comment\n0 63\n5 40\n0 13\n")

        rc = cli.main(["serve", "-i", gpath, "--hopset", hpath, "--queries", qpath])
        out1 = capsys.readouterr().out
        assert rc == 0
        assert "built hopset" in out1 and "saved hopset" in out1
        assert "served 3 queries" in out1

        rc = cli.main(["serve", "-i", gpath, "--hopset", hpath, "--queries", qpath])
        out2 = capsys.readouterr().out
        assert rc == 0
        assert "loaded hopset" in out2
        # answers are identical between build and load runs, and exact
        answers1 = [line for line in out1.splitlines() if line.count(" ") == 2
                    and not line.startswith(("built", "saved", "loaded", "graph", "served"))]
        answers2 = [line for line in out2.splitlines() if line.count(" ") == 2
                    and not line.startswith(("built", "saved", "loaded", "graph", "served"))]
        assert answers1 == answers2
        s, t, d = answers1[0].split()
        assert (int(s), int(t)) == (0, 63)
        assert float(d) == pytest.approx(dijkstra_scipy(g, 0)[63])

    def test_cli_stdin_queries(self, tmp_path, capsys, monkeypatch):
        import io

        from repro.graph.io import save_edgelist

        g = grid_graph(5, 5)
        gpath = str(tmp_path / "g.txt")
        save_edgelist(g, gpath)
        monkeypatch.setattr("sys.stdin", io.StringIO("0 24\n"))
        rc = cli.main(["serve", "-i", gpath])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 24 8" in out

    def test_cli_malformed_query_errors(self, tmp_path, capsys):
        from repro.graph.io import save_edgelist

        g = grid_graph(4, 4)
        gpath = str(tmp_path / "g.txt")
        save_edgelist(g, gpath)
        qpath = str(tmp_path / "q.txt")
        # a short line, a non-integer token, a float vertex id
        for line in ("7", "3 x", "1.5 3"):
            with open(qpath, "w", encoding="utf-8") as f:
                f.write(f"0 15\n{line}\n")
            rc = cli.main(["serve", "-i", gpath, "--queries", qpath])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"error: malformed query line {line!r}\n"
            )

    def test_cli_hops_flag_is_gone(self, capsys):
        # serving is exact-only: the hop budget flag is an argparse error
        for cmd, hops in (("serve", "2"), ("update", "3")):
            with pytest.raises(SystemExit) as exc:
                cli.main([cmd, "--n", "50", "--m", "120", "--hops", hops])
            assert exc.value.code == 2
            assert "--hops" in capsys.readouterr().err

    def test_cli_parameter_error_is_a_message(self, tmp_path, capsys):
        from repro.graph.io import save_edgelist

        gpath = str(tmp_path / "g.txt")
        save_edgelist(grid_graph(4, 4), gpath)
        qpath = str(tmp_path / "q.txt")
        with open(qpath, "w", encoding="utf-8") as f:
            f.write("0 15\n")
        rc = cli.main(["serve", "-i", gpath, "--queries", qpath, "--cache-rows", "-1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "cache_rows" in err
        assert "Traceback" not in err

    def test_cli_hopset_for_another_graph_is_a_message(self, tmp_path, capsys):
        from repro.graph.io import save_edgelist

        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        save_edgelist(grid_graph(4, 4), a)
        save_edgelist(grid_graph(2, 8), b)  # same n, another graph
        hpath = str(tmp_path / "a.npz")
        qpath = str(tmp_path / "q.txt")
        with open(qpath, "w", encoding="utf-8") as f:
            f.write("0 15\n")
        assert cli.main(["serve", "-i", a, "--hopset", hpath, "--queries", qpath]) == 0
        capsys.readouterr()
        rc = cli.main(["serve", "-i", b, "--hopset", hpath, "--queries", qpath])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "built for another graph" in err

# ----------------------------------------------------------------------
# dynamic updates: exact cache invalidation
# ----------------------------------------------------------------------
class TestApplyUpdates:
    @pytest.fixture()
    def dyn_served(self):
        g = _random_weighted(140, 420, seed=21)
        hs = build_hopset(g, PARAMS, seed=11, record_structure=True)
        return g, hs

    @staticmethod
    def _redundant_edge(g):
        """An edge on no shortest path and nowhere tight: deleting it
        changes no distance row."""
        for i in np.argsort(-g.edge_w):
            u, v, w = int(g.edge_u[i]), int(g.edge_v[i]), float(g.edge_w[i])
            if dijkstra_scipy(g, u)[v] < w - 1e-9:
                return u, v, w
        raise AssertionError("graph has no redundant edge")

    def test_irrelevant_batch_keeps_rows_warm(self, dyn_served):
        from repro.dynamic import UpdateBatch

        g, hs = dyn_served
        srv = DistanceServer(hs, cache_rows=16)
        warm = [0, 30, 77]
        old_rows = {s: srv.distance_row(s).copy() for s in warm}
        u, v, _ = self._redundant_edge(g)
        # delete a redundant edge and insert a *fresh* one too heavy to
        # shorten anything: no cached row can have changed
        nbrs = set(g.indices[g.indptr[0]:g.indptr[1]].tolist())
        t = next(x for x in range(1, g.n) if x not in nbrs)
        batch = UpdateBatch.from_tuples(
            inserts=[(0, t, 2 * float(old_rows[0][t]) + 10)],
            deletes=[(u, v)],
        )
        hits0 = srv.stats.cache_hits
        info = srv.apply_updates(batch)
        assert info["invalidated_rows"] == 0
        assert srv.stats.cache_invalidations == 0
        assert sorted(srv.cached_sources()) == sorted(warm)
        for s in warm:
            row = srv.distance_row(s)  # must be a cache hit
            assert np.array_equal(row, old_rows[s])
            assert np.allclose(row, dijkstra_scipy(srv.hopset.graph, s))
        assert srv.stats.cache_hits == hits0 + len(warm)

    def test_shortcut_invalidates_exactly_the_changed_rows(self, dyn_served):
        from repro.dynamic import UpdateBatch

        g, hs = dyn_served
        srv = DistanceServer(hs, cache_rows=16)
        warm = list(range(10))
        old_rows = {s: srv.distance_row(s).copy() for s in warm}
        # a tiny-weight shortcut between the two endpoints realizing the
        # diameter-ish pair of row 0 shortens many rows, rarely all
        far = int(np.argmax(np.where(np.isfinite(old_rows[0]), old_rows[0], -1)))
        batch = UpdateBatch.from_tuples(inserts=[(0, far, 0.01)])
        info = srv.apply_updates(batch)
        gs_new = srv.hopset.graph
        changed = {
            s for s in warm
            if not np.allclose(old_rows[s], dijkstra_scipy(gs_new, s))
        }
        still_cached = set(srv.cached_sources())
        # insert-only batches make the staleness rule exact: evicted ==
        # changed, warm == unchanged
        assert changed and still_cached == set(warm) - changed
        assert info["invalidated_rows"] == len(changed)
        misses0 = srv.stats.cache_misses
        hits0 = srv.stats.cache_hits
        for s in warm:
            assert np.allclose(srv.distance_row(s), dijkstra_scipy(gs_new, s))
        assert srv.stats.cache_misses == misses0 + len(changed)
        assert srv.stats.cache_hits == hits0 + len(warm) - len(changed)

    def test_delete_tight_edge_recomputes_row(self, dyn_served):
        from repro.dynamic import UpdateBatch

        g, hs = dyn_served
        srv = DistanceServer(hs, cache_rows=16)
        row0 = srv.distance_row(0).copy()
        # deleting an edge incident to 0 that realizes d(0, v) must
        # invalidate row 0 (it was tight by construction)
        lo, hi = g.indptr[0], g.indptr[1]
        nbr = int(g.indices[lo])
        w = float(g.weights[lo])
        assert row0[nbr] <= w + 1e-9
        batch = UpdateBatch.from_tuples(deletes=[(0, nbr)])
        srv.apply_updates(batch)
        assert 0 not in srv.cached_sources()
        assert np.allclose(
            srv.distance_row(0), dijkstra_scipy(srv.hopset.graph, 0)
        )

    def test_requires_structure_and_meta(self, dyn_served):
        from repro.dynamic import UpdateBatch

        g, _ = dyn_served
        plain = build_hopset(g, PARAMS, seed=11)
        srv = DistanceServer(plain)
        with pytest.raises(ParameterError, match="repair structure"):
            srv.apply_updates(UpdateBatch.from_tuples(inserts=[(0, 1, 5.0)]))

    def test_structure_survives_save_load(self, dyn_served, tmp_path):
        from repro.dynamic import UpdateBatch

        g, hs = dyn_served
        path = str(tmp_path / "hs_dyn.npz")
        save_hopset(hs, path)
        hs2 = load_hopset(g, path)
        assert hs2.structure is not None
        assert np.array_equal(hs2.structure.top_labels, hs.structure.top_labels)
        assert np.array_equal(hs2.structure.top_seeds, hs.structure.top_seeds)
        assert hs2.structure.method == hs.structure.method == "auto"
        srv = DistanceServer(hs2)
        info = srv.apply_updates(UpdateBatch.from_tuples(inserts=[(0, 70, 1.5)]))
        srv.apply_updates(info["inverse"])
        assert np.allclose(srv.distance_row(0), dijkstra_scipy(g, 0))

    @pytest.fixture(scope="class")
    def exact_built(self):
        # an unweighted graph, where "exact" and "auto" (= "round")
        # races cluster differently
        g = random_geometric_graph(600, 0.08, seed=3)
        assert g.is_unweighted
        hs = build_hopset(g, PARAMS, seed=11, method="exact", record_structure=True)
        return g, hs

    def test_inverse_restores_hopset_built_exact(self, exact_built, tmp_path):
        # repair used to re-race dirty blocks with method="auto", so a
        # batch and its inverse left another hopset behind
        from repro.dynamic import UpdateBatch

        g, hs = exact_built

        def key(h):
            return sorted(zip(h.eu.tolist(), h.ev.tolist(), h.ew.tolist(), h.kind.tolist()))

        path = str(tmp_path / "hs_exact.npz")
        save_hopset(hs, path)
        dels = [(int(g.edge_u[i]), int(g.edge_v[i])) for i in range(0, 5 * 97, 97)]
        for held in (hs, load_hopset(g, path)):  # as built, and reloaded
            srv = DistanceServer(held, cache_rows=0)
            info = srv.apply_updates(UpdateBatch.from_tuples(deletes=dels))
            assert info["dirty_blocks"] > 0
            srv.apply_updates(info["inverse"])
            assert key(srv.hopset) == key(hs)

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda z: z.update(top_labels=z["top_labels"][:550]), "shape"),
            (lambda z: z.update(top_labels=z["top_labels"] + 1000), "outside"),
            (lambda z: z.update(method=np.array("greedy")), "greedy"),
        ],
        ids=["labels_cut", "labels_shifted", "unknown_method"],
    )
    def test_load_refuses_structure_not_fitting_graph(
        self, exact_built, tmp_path, corrupt, match
    ):
        # both label corruptions used to load and then fail inside
        # apply_updates with a bare IndexError
        g, hs = exact_built
        path = str(tmp_path / "hs.npz")
        save_hopset(hs, path)
        with np.load(path) as f:
            z = dict(f)
        corrupt(z)
        np.savez(path, **z)
        with pytest.raises(ParameterError, match=match) as err:
            load_hopset(g, path)
        assert path in str(err.value)

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda z: z["eu"].put(0, 605), r"outside \[0, 600\)"),
            (lambda z: z["ev"].put(0, -1), r"outside \[0, 600\)"),
            (lambda z: z.update(ev=z["ev"][:-1]), "one length"),
            (lambda z: z.update(eu=z["eu"].astype(np.float64)), "integer"),
            (lambda z: z["ew"].put(0, np.nan), "finite"),
            (lambda z: z["ew"].put(0, -1.0), "non-negative"),
            (lambda z: z.update(ew=z["ew"][:-1]), "ew has shape"),
            (lambda z: z["kind"].put(0, 2), "kind"),
            (lambda z: z.update(kind=z["kind"][:-1]), "kind"),
        ],
        ids=[
            "eu_past_n", "ev_negative", "ev_cut", "eu_float", "ew_nan",
            "ew_negative", "ew_cut", "kind_unknown", "kind_cut",
        ],
    )
    def test_load_refuses_edges_not_fitting_graph(
        self, exact_built, tmp_path, corrupt, match
    ):
        # an endpoint past n used to load, then fail inside apply_updates
        # with a bare IndexError and inside hopset_distance with a numpy
        # error; the edge arrays are checked with or without a structure
        g, hs = exact_built
        path = str(tmp_path / "hs.npz")
        save_hopset(hs, path)
        with np.load(path) as f:
            z = {k: f[k].copy() for k in f.files}
        corrupt(z)
        plain = {k: v for k, v in z.items() if k not in ("top_labels", "top_seeds", "method")}
        for arrays in (z, plain):
            np.savez(path, **arrays)
            with pytest.raises(ParameterError, match=match) as err:
                load_hopset(g, path)
            assert path in str(err.value)

    def test_file_without_method_loads_as_auto(self, dyn_served, tmp_path):
        g, hs = dyn_served
        path = str(tmp_path / "hs.npz")
        save_hopset(hs, path)
        with np.load(path) as f:
            z = {k: f[k] for k in f.files if k != "method"}
        np.savez(path, **z)
        assert load_hopset(g, path).structure.method == "auto"

    def test_stats_include_invalidations(self):
        d = ServerStats().as_dict()
        assert d["cache_invalidations"] == 0
