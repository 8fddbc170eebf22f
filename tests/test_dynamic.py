"""Dynamic-graph suite: UpdateBatch semantics and metamorphic repair laws.

Incremental repair may legitimately emit different edges than a fresh
rebuild, so correctness is pinned at the *guarantee* level:

* **inverse law** — applying a batch and then its exact inverse
  through ``DistanceServer.apply_updates`` restores the hopset edge
  multiset bit for bit (per-block rebuilds are seeded) and restores
  served distances;
* **differential law** — after *every* ``apply_batch`` +
  ``repair_hopset`` step the repaired hopset passes the same verifiers
  (`verify_edge_weights`, exact full-convergence serving) as the full
  seeded rebuild oracle on the same graph;
* **determinism** — one seed and one batch sequence produce identical
  repaired edge sets on every engine kernel, whatever the (unused)
  ``workers=`` that ``build_hopset`` keeps for the repository benchmark.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import edge_id_lookup, engine_kernel
from repro import cli
from repro.dynamic import UpdateBatch, apply_batch, repair_hopset
from repro.errors import GraphFormatError, ParameterError
from repro.graph import (
    from_edges,
    gnm_random_graph,
    grid_graph,
    induced_subgraph,
    with_random_weights,
)
from repro.graph.csr import build_csr
from repro.graph.storage import load_store, save_store
from repro.hopsets import HopsetParams, build_hopset
from repro.paths.dijkstra import dijkstra_scipy
from repro.serve import DistanceServer

PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5)
# larger beta0: level 0 splits a graph into many blocks
MANY_BLOCKS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.3)


def _weighted(n, m, seed):
    g = gnm_random_graph(n, m, seed=seed, connected=True)
    return with_random_weights(g, 1.0, 9.0, "uniform", seed=seed + 1)


def _weighted_grid(rows, cols, seed):
    return with_random_weights(grid_graph(rows, cols), 1.0, 4.0, seed=seed)


def _random_batch(g, seed, n_ins=8, n_del=8):
    rng = np.random.default_rng(seed)
    eid = rng.choice(g.m, size=min(n_del, g.m), replace=False)
    return UpdateBatch(
        insert_u=rng.integers(0, g.n, n_ins),
        insert_v=rng.integers(0, g.n, n_ins),
        insert_w=rng.uniform(1.0, 9.0, n_ins),
        delete_u=g.edge_u[eid],
        delete_v=g.edge_v[eid],
    )


def _hopset_key(hs):
    return sorted(
        zip(hs.eu.tolist(), hs.ev.tolist(), hs.ew.tolist(), hs.kind.tolist())
    )


def _graph_key(g):
    return (
        g.edge_u.tolist(),
        g.edge_v.tolist(),
        g.edge_w.tolist(),
    )


def _edgeless(n):
    return from_edges(n, np.empty((0, 2), dtype=np.int64))


# "auto" races a unit-weight graph in round mode and "exact" does not,
# so the two methods build different hopsets on the unit grid
GRAPHS = {
    "weighted-gnm": lambda: _weighted(120, 320, seed=5),
    "weighted-grid": lambda: _weighted_grid(20, 20, seed=8),
    "unit-grid": lambda: grid_graph(20, 20),
}


# ----------------------------------------------------------------------
# UpdateBatch / apply_batch semantics
# ----------------------------------------------------------------------
class TestUpdateBatch:
    def test_normalization(self):
        b = UpdateBatch.from_tuples(
            inserts=[(5, 2, 3.0), (2, 5, 1.5), (4, 4, 1.0)],
            deletes=[(9, 1), (1, 9)],
        )
        # canonical orientation, self-loop dropped, lightest duplicate wins
        assert b.insert_u.tolist() == [2] and b.insert_v.tolist() == [5]
        assert b.insert_w.tolist() == [1.5]
        assert b.delete_u.tolist() == [1] and b.delete_v.tolist() == [9]
        assert b.size == 2

    def test_validation_errors(self):
        for w in (-1.0, np.inf):
            with pytest.raises(ParameterError):
                UpdateBatch.from_tuples(inserts=[(0, 1, w)])
        with pytest.raises(ParameterError):
            UpdateBatch.from_tuples(inserts=[(-1, 2, 1.0)])
        g = _weighted(20, 40, seed=0)
        with pytest.raises(ParameterError):
            apply_batch(g, UpdateBatch.from_tuples(deletes=[(0, 99)]))

    def test_weight_set_and_noop(self):
        g = _weighted(30, 60, seed=1)
        u, v, w = int(g.edge_u[0]), int(g.edge_v[0]), float(g.edge_w[0])
        ar = apply_batch(g, UpdateBatch.from_tuples(inserts=[(u, v, w)]))
        assert ar.stats["dropped_inserts"] == 1  # same weight: no-op
        assert ar.stats["weight_changed"] == 0
        ar = apply_batch(g, UpdateBatch.from_tuples(inserts=[(u, v, w + 1)]))
        assert ar.stats["weight_changed"] == 1
        eid = edge_id_lookup(ar.graph, [u], [v])[0]
        assert float(ar.graph.edge_w[eid]) == w + 1
        # weight increase lands in removed_* at the old weight
        assert ar.removed_w.tolist() == [w]

    def test_dropped_absent_delete(self):
        g = _weighted(30, 60, seed=2)
        present = {(int(a), int(b)) for a, b in zip(g.edge_u, g.edge_v)}
        pair = next(
            (a, b)
            for a in range(g.n)
            for b in range(a + 1, g.n)
            if (a, b) not in present
        )
        ar = apply_batch(g, UpdateBatch.from_tuples(deletes=[pair]))
        assert ar.stats["dropped_deletes"] == 1
        assert _graph_key(ar.graph) == _graph_key(g)

    def test_insert_into_edgeless_graph(self):
        # the insert path used to gather the m = 0 keep mask at id 0
        ar = apply_batch(_edgeless(4), UpdateBatch.from_tuples(inserts=[(0, 3, 2.0)]))
        assert ar.stats["inserted"] == 1
        # the inserted pair is the new graph's only edge
        assert _graph_key(ar.graph) == ([0], [3], [2.0])

    def test_delete_from_edgeless_graph_is_dropped(self):
        g = _edgeless(4)
        ar = apply_batch(g, UpdateBatch.from_tuples(deletes=[(0, 3)], inserts=[(1, 2, 1.0)]))
        assert ar.stats["dropped_deletes"] == 1
        assert ar.stats["deleted"] == 0 and ar.stats["inserted"] == 1

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_apply_then_inverse_is_identity(self, seed):
        g = _weighted(80, 200, seed=3)
        batch = _random_batch(g, seed)
        ar = apply_batch(g, batch)
        back = apply_batch(ar.graph, ar.inverse)
        assert _graph_key(back.graph) == _graph_key(g)

    def test_edge_list_stays_key_sorted(self):
        g = _weighted(60, 150, seed=4)
        batch = _random_batch(g, seed=7)
        ar = apply_batch(g, batch)
        keys = ar.graph.edge_u * ar.graph.n + ar.graph.edge_v
        assert np.all(np.diff(keys) > 0)
        # every pair the batch leaves alone keeps its weight
        def weights(h):
            return dict(zip(zip(h.edge_u.tolist(), h.edge_v.tolist()), h.edge_w.tolist()))

        old, new = weights(g), weights(ar.graph)
        named = set(zip(batch.delete_u.tolist(), batch.delete_v.tolist()))
        named |= set(zip(batch.insert_u.tolist(), batch.insert_v.tolist()))
        untouched = [pair for pair in old if pair not in named]
        assert len(untouched) >= g.m - batch.size
        assert all(new[pair] == old[pair] for pair in untouched)

    def test_non_canonical_edge_list_is_refused(self):
        # an induced subgraph of an unsorted vertex list keeps the
        # relabelled pairs as they fall: (1, 0), (1, 2), (0, 2).  Keyed
        # lookups miss (0, 1) there, so a delete would be dropped and an
        # insert would add a parallel edge
        g = induced_subgraph(from_edges(10, [(2, 5), (5, 9), (2, 9), (0, 1)]), np.array([5, 2, 9]))[0]
        for batch in (
            UpdateBatch.from_tuples(deletes=[(0, 1)]),
            UpdateBatch.from_tuples(inserts=[(0, 1, 2.0)]),
        ):
            with pytest.raises(GraphFormatError, match=r"edge 0 \(1, 0\)"):
                apply_batch(g, batch)
        # u < v everywhere, but the keys descend at edge 1
        swapped = build_csr(4, np.array([1, 0]), np.array([2, 3]), np.array([1.0, 1.0]))
        with pytest.raises(GraphFormatError, match=r"edge 1 \(0, 3\)"):
            apply_batch(swapped, UpdateBatch.from_tuples(deletes=[(0, 3)]))


# ----------------------------------------------------------------------
# the spliced graph is the built one
# ----------------------------------------------------------------------
CSR_ARRAYS = ("indptr", "indices", "weights", "edge_ids", "edge_u", "edge_v", "edge_w")
WEIGHTS = st.sampled_from([0.5, 1.0, 2.0, 3.5])


def _rules(g, batch):
    """The edges ``apply_batch`` leaves and what it reports, by the batch
    rules, one pair at a time."""
    old = {(u, v): w for u, v, w in g.iter_edges()}
    dels = [p for p in zip(batch.delete_u.tolist(), batch.delete_v.tolist()) if p in old]
    live = {p: w for p, w in old.items() if p not in dels}
    fresh, down, up, reweighted, noop = [], [], [], [], 0
    for u, v, w in zip(batch.insert_u.tolist(), batch.insert_v.tolist(), batch.insert_w.tolist()):
        was = live.get((u, v))
        if was is None:
            fresh.append((u, v, w))
        elif was == w:
            noop += 1
        else:
            (down if w < was else up).append((u, v, w, was))
            reweighted.append((u, v, was))
        live[(u, v)] = w
    added = fresh + [(u, v, w) for u, v, w, _ in down]
    removed = [(u, v, old[(u, v)]) for u, v in dels] + [(u, v, was) for u, v, _, was in up]
    ends = [x for p in dels + [t[:2] for t in fresh + reweighted] for x in p]
    return live, {
        "added": added,
        "removed": removed,
        "touched": sorted(set(ends)),
        "inverse": UpdateBatch.from_tuples(
            [(u, v, old[(u, v)]) for u, v in dels] + reweighted,
            [t[:2] for t in fresh],
        ),
        "stats": {
            "inserted": len(fresh),
            "deleted": len(dels),
            "weight_changed": len(reweighted),
            "dropped_deletes": batch.num_deletes - len(dels),
            "dropped_inserts": noop,
            "touched_vertices": len(set(ends)),
        },
    }


def _check_apply(g, batch):
    """``apply_batch``'s graph equals ``build_csr`` on its edge list and
    its views and stats follow the batch rules."""
    ar = apply_batch(g, batch)
    h = ar.graph
    want = build_csr(h.n, h.edge_u, h.edge_v, h.edge_w)
    for name in CSR_ARRAYS:
        got, ref = getattr(h, name), getattr(want, name)
        assert got.dtype == ref.dtype, name
        assert np.array_equal(got, ref), name
    live, rules = _rules(g, batch)
    assert sorted(live) == list(zip(h.edge_u.tolist(), h.edge_v.tolist()))
    assert [live[p] for p in sorted(live)] == h.edge_w.tolist()

    def triples(u, v, w):
        return list(zip(u.tolist(), v.tolist(), w.tolist()))

    assert triples(ar.added_u, ar.added_v, ar.added_w) == rules["added"]
    assert triples(ar.removed_u, ar.removed_v, ar.removed_w) == rules["removed"]
    assert ar.touched.tolist() == rules["touched"]
    assert ar.stats == rules["stats"]
    inv = rules["inverse"]
    for name in ("insert_u", "insert_v", "insert_w", "delete_u", "delete_v"):
        assert getattr(ar.inverse, name).tolist() == getattr(inv, name).tolist(), name
    return ar


@st.composite
def _graph_and_batch(draw):
    n = draw(st.integers(1, 10))
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=30))
    g = from_edges(n, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                   draw(st.lists(WEIGHTS, min_size=len(pairs), max_size=len(pairs))))
    inserts = draw(st.lists(st.tuples(ids, ids, WEIGHTS), max_size=8))
    deletes = draw(st.lists(st.tuples(ids, ids), max_size=8))
    return g, UpdateBatch.from_tuples(inserts, deletes)


class TestSpliceEqualsBuild:
    @settings(max_examples=300, deadline=None)
    @given(case=_graph_and_batch())
    def test_random_batches(self, case):
        _check_apply(*case)

    def test_edgeless_graph(self):
        _check_apply(_edgeless(6), UpdateBatch.from_tuples(
            inserts=[(4, 1, 2.0), (0, 5, 1.0), (1, 2, 3.0)], deletes=[(0, 1)]))

    def test_consecutive_vertices_get_their_first_arcs(self):
        # 2 and 3 have no arcs, so their new arcs share one old slot with
        # 4's first arc; 4's and 5's new arcs share the slot after 4 -> 5
        g = from_edges(6, [(0, 1), (4, 5)])
        ar = _check_apply(g, UpdateBatch.from_tuples(
            inserts=[(2, 3, 1.0), (2, 5, 1.0), (3, 4, 1.0)]))
        assert ar.graph.indices.tolist() == [1, 0, 3, 5, 4, 2, 5, 3, 2, 4]

    def test_delete_and_reinsert_one_pair(self):
        g = _weighted(30, 60, seed=11)
        u, v, w = int(g.edge_u[7]), int(g.edge_v[7]), float(g.edge_w[7])
        for again in (w, w + 1.0):
            ar = _check_apply(g, UpdateBatch.from_tuples(inserts=[(u, v, again)], deletes=[(u, v)]))
            assert ar.stats["deleted"] == 1 and ar.stats["inserted"] == 1

    def test_weight_increases_and_decreases(self):
        g = _weighted(40, 100, seed=12)
        ups = [(int(g.edge_u[e]), int(g.edge_v[e]), float(g.edge_w[e]) + 1.0) for e in (0, 9, 50)]
        downs = [(int(g.edge_u[e]), int(g.edge_v[e]), float(g.edge_w[e]) / 2) for e in (3, 51, 99)]
        ar = _check_apply(g, UpdateBatch.from_tuples(inserts=ups + downs))
        assert ar.stats["weight_changed"] == 6
        assert ar.added_u.shape[0] == 3 and ar.removed_u.shape[0] == 3

    def test_int32_store_graph(self, tmp_path):
        # a store keeps int32 ids; a deletes-only splice of int32 slices
        # must still come out int64, as build_csr's arrays do
        g = _weighted(50, 150, seed=13)
        save_store(g, tmp_path / "store")
        stored = load_store(tmp_path / "store")
        assert stored.edge_u.dtype == stored.indices.dtype == np.int32
        eids = [0, 17, 149]
        deletes = list(zip(g.edge_u[eids].tolist(), g.edge_v[eids].tolist()))
        for batch in (
            UpdateBatch.from_tuples(deletes=deletes),
            UpdateBatch.from_tuples(inserts=[(0, 49, 2.0)], deletes=deletes),
        ):
            ar = _check_apply(stored, batch)
            assert ar.graph == apply_batch(g, batch).graph


# ----------------------------------------------------------------------
# hopset repair
# ----------------------------------------------------------------------
def _changed(ar):
    """Endpoints of every edge ``ar`` inserted, deleted or re-weighted."""
    return (
        np.concatenate([ar.added_u, ar.removed_u]),
        np.concatenate([ar.added_v, ar.removed_v]),
    )


def _every_block(n):
    """Pairs ``(v, v)``: each lies inside its vertex's block, so a repair
    given them rebuilds every block."""
    return np.arange(n), np.arange(n)


def _churn(hs, g, batch, params=PARAMS):
    """One churn step: ``apply_batch`` then ``repair_hopset``."""
    ar = apply_batch(g, batch)
    repaired, info = repair_hopset(hs, ar.graph, _changed(ar), params)
    return ar.graph, repaired, info


class TestDynamicHopset:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_inverse_restores_hopset_and_serving(self, seed):
        g = _weighted(120, 320, seed=5)
        hs = build_hopset(g, PARAMS, seed=17, record_structure=True)
        original = _hopset_key(hs)
        server = DistanceServer(hs, cache_rows=0)
        row0 = server.distance_row(0)
        info = server.apply_updates(_random_batch(g, seed))
        server.hopset.verify_edge_weights()
        server.apply_updates(info["inverse"])
        assert _hopset_key(server.hopset) == original
        assert _graph_key(server.hopset.graph) == _graph_key(g)
        row1 = server.distance_row(0)
        assert np.array_equal(row0, row1)

    def test_server_grows_edgeless_graph(self):
        hs = build_hopset(_edgeless(5), PARAMS, seed=3, record_structure=True)
        server = DistanceServer(hs)
        assert server.query(0, 3) == np.inf
        server.apply_updates(UpdateBatch.from_tuples(inserts=[(0, 3, 2.5)]))
        assert server.query(0, 3) == 2.5
        assert server.query(0, 4) == np.inf

    def test_differential_vs_full_rebuild_every_batch(self):
        g = _weighted(150, 400, seed=6)
        hs = build_hopset(g, PARAMS, seed=23, record_structure=True)
        for step in range(3):
            g, hs, _ = _churn(hs, g, _random_batch(g, seed=100 + step))
            # guarantee level: Definition 2.4 on the repaired structure
            hs.verify_edge_weights()
            oracle = build_hopset(g, PARAMS, seed=23, record_structure=True)
            oracle.verify_edge_weights()
            # both serve exact distances at full convergence
            want = dijkstra_scipy(g, 3)
            for result in (hs, oracle):
                got = DistanceServer(result, cache_rows=0).distance_row(3)
                assert np.allclose(got, want)

    # "reference" runs every engine search on the heapq oracle kernel
    @pytest.mark.parametrize("kernel", ["numpy", "reference"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_determinism_across_backends_and_workers(self, kernel, workers):
        g0 = _weighted(140, 360, seed=7)

        def churned(**kw):
            g = g0
            hs = build_hopset(g, PARAMS, seed=31, record_structure=True, **kw)
            for batch_seed in (41, 42):
                g, hs, _ = _churn(hs, g, _random_batch(g, seed=batch_seed))
            return hs

        base = churned()
        with engine_kernel(kernel):
            other = churned(workers=workers)
        assert _hopset_key(base) == _hopset_key(other)

    def test_locality_on_high_diameter_graph(self):
        g = _weighted_grid(24, 24, seed=8)
        # larger beta0 (smaller gamma2) so level 0 splits the grid into
        # many blocks — the locality the repair exploits
        local = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.3)
        hs = build_hopset(g, local, seed=13, record_structure=True)
        assert hs.structure.num_blocks > 1
        # a single-edge change dirties few blocks and keeps the rest
        u, v = int(g.edge_u[0]), int(g.edge_v[0])
        _, hs, info = _churn(
            hs, g, UpdateBatch.from_tuples(deletes=[(u, v)]), params=local
        )
        assert info["dirty_blocks"] < hs.structure.num_blocks
        assert info["kept_edges"] > 0
        hs.verify_edge_weights()

    def test_changes_between_blocks_dirty_no_block(self):
        g = _weighted_grid(24, 24, seed=8)
        hs = build_hopset(g, MANY_BLOCKS, seed=13, record_structure=True)
        lab = hs.structure.top_labels
        cross = np.flatnonzero(lab[g.edge_u] != lab[g.edge_v])[:4]
        assert cross.size == 4
        (a, b), (c, d), (e, f), (x, y) = zip(g.edge_u[cross].tolist(), g.edge_v[cross].tolist())
        wab, wcd = g.edge_w[cross[:2]].tolist()
        # vertex 0 and the far corner of the grid lie in different blocks
        assert lab[0] != lab[g.n - 1]
        batch = UpdateBatch.from_tuples(
            inserts=[(a, b, wab + 1.0), (c, d, wcd / 2), (0, g.n - 1, 1.0)],
            deletes=[(e, f), (x, y)],
        )
        _, repaired, info = _churn(hs, g, batch, params=MANY_BLOCKS)
        assert info["dirty_blocks"] == info["rebuilt_blocks"] == info["rebuilt_edges"] == 0
        assert info["kept_edges"] == hs.size
        for name in ("eu", "ev", "ew", "kind"):
            assert np.array_equal(getattr(repaired, name), getattr(hs, name)), name
        repaired.verify_edge_weights()

    @settings(max_examples=15, deadline=None)
    @given(graph=st.sampled_from(sorted(GRAPHS)), seed=st.integers(0, 10_000))
    def test_repair_equals_rebuilding_every_block(self, graph, seed):
        # a block no changed edge lies inside keeps its induced subgraph,
        # so its kept edges are what a rebuild on the new graph emits
        g = GRAPHS[graph]()
        hs = build_hopset(g, MANY_BLOCKS, seed=seed, record_structure=True)
        for step in range(2):
            ar = apply_batch(g, _random_batch(g, seed + step))
            repaired, _ = repair_hopset(hs, ar.graph, _changed(ar), MANY_BLOCKS)
            every, info = repair_hopset(hs, ar.graph, _every_block(g.n), MANY_BLOCKS)
            assert info["dirty_blocks"] == hs.structure.num_blocks
            assert _hopset_key(repaired) == _hopset_key(every)
            g, hs = ar.graph, repaired

    def test_requires_structure(self):
        g = _weighted(60, 150, seed=9)
        hs = build_hopset(g, PARAMS, seed=1)  # no record_structure
        with pytest.raises(ParameterError):
            repair_hopset(hs, g, (np.array([0]), np.array([1])), params=PARAMS)

    @settings(max_examples=30, deadline=None)
    @given(
        graph=st.sampled_from(sorted(GRAPHS)),
        params=st.sampled_from([PARAMS, MANY_BLOCKS]),
        method=st.sampled_from(["auto", "exact"]),
        seed=st.integers(0, 10_000),
    )
    def test_repairing_every_block_returns_the_build(self, graph, params, method, seed):
        # a build is level 0 plus the repair's per-block loop on every
        # block, so marking every edge of the unchanged graph changed
        # gives back the build's edges: same values, same order, same
        # dtypes.  Level-0 blocks are connected, so every block the
        # build ran its loop on holds an edge and is rebuilt.
        g = GRAPHS[graph]()
        hs = build_hopset(g, params, seed=seed, method=method, record_structure=True)
        repaired, info = repair_hopset(hs, g, (g.edge_u, g.edge_v), params)
        sizes = np.bincount(hs.structure.top_labels)
        assert info["rebuilt_blocks"] == int((sizes > params.n_final(g.n)).sum())
        assert info["kept_edges"] == 0
        for name in ("eu", "ev", "ew", "kind"):
            got, want = getattr(repaired, name), getattr(hs, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    def test_record_structure_preserves_edges(self):
        g = _weighted(100, 260, seed=10)
        plain = build_hopset(g, PARAMS, seed=3)
        recorded = build_hopset(g, PARAMS, seed=3, record_structure=True)
        assert _hopset_key(plain) == _hopset_key(recorded)
        st_ = recorded.structure
        assert st_ is not None and st_.top_labels.shape == (g.n,)
        if recorded.size:
            assert np.array_equal(
                st_.top_labels[recorded.eu], st_.top_labels[recorded.ev]
            )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestUpdateCLI:
    def test_update_roundtrip(self, tmp_path, capsys):
        upd = tmp_path / "updates.txt"
        upd.write_text("# churn\ni 3 90 2.5\nd 0 1\ni 5 70 1.0\n")
        rc = cli.main([
            "update", "--n", "120", "--m", "480", "--seed", "4",
            "--updates", str(upd), "--batch", "2", "--verify",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "blocks rebuilt" in out
        assert "verified" in out
        assert "4 served rows equal Dijkstra" in out

    def test_update_verify_replays_deletes_reinserts_and_reweights(self, tmp_path, capsys):
        # (0, 4) and (0, 7) are edges of this graph: one batch deletes
        # and re-inserts (0, 4) and re-weights (0, 7); the next deletes
        # (0, 7) and ignores a self-loop
        upd = tmp_path / "updates.txt"
        upd.write_text("i 3 90 2.5\nd 0 4\ni 0 4 2.0\ni 0 7 3.0\ni 5 5 1.0\nd 0 7\n")
        rc = cli.main([
            "update", "--n", "120", "--m", "480", "--seed", "4",
            "--updates", str(upd), "--batch", "4", "--verify",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "batch 0: +2 -1 ~1" in out and "batch 1: +0 -1 ~0" in out
        assert "the graph against the replayed script after every batch" in out

    def test_update_verify_catches_a_wrong_graph(self, tmp_path, capsys, monkeypatch):
        # served rows are exact on whatever graph the server holds, so
        # only the replay sees an apply_batch that loses the batch
        import dataclasses

        from repro.dynamic import batch as batch_module

        applied = batch_module.apply_batch
        monkeypatch.setattr(
            batch_module, "apply_batch",
            lambda g, b: dataclasses.replace(applied(g, b), graph=g),
        )
        upd = tmp_path / "updates.txt"
        upd.write_text("i 3 90 2.5\n")
        rc = cli.main([
            "update", "--n", "120", "--m", "480", "--seed", "4",
            "--updates", str(upd), "--verify",
        ])
        assert rc == 1
        assert "differs from the replayed update script" in capsys.readouterr().err

    def test_update_hop_budget_verify_catches_undercut(self, tmp_path, capsys, monkeypatch):
        # --verify must catch a wrong exact row, not only a wrong hopset
        # edge: every served row is shifted below Dijkstra here
        from repro.serve import DistanceServer

        served = DistanceServer.distance_row
        monkeypatch.setattr(
            DistanceServer, "distance_row",
            lambda self, s: served(self, s) - 1.0,
        )
        upd = tmp_path / "updates.txt"
        upd.write_text("d 0 1\n")
        rc = cli.main([
            "update", "--n", "120", "--m", "480", "--seed", "4",
            "--updates", str(upd), "--verify",
        ])
        assert rc == 1
        assert "diverges from Dijkstra" in capsys.readouterr().err

    def test_update_malformed_line(self, tmp_path, capsys):
        upd = tmp_path / "updates.txt"
        # after a good line: an unknown op, a non-integer vertex token
        for bad in ("x 1 2", "i 0 x 1.0"):
            upd.write_text(f"i 0 1 2.0\n{bad}\n")
            rc = cli.main([
                "update", "--n", "60", "--m", "150", "--updates", str(upd),
            ])
            assert rc == 2
            assert capsys.readouterr().err.startswith(
                f"error: malformed update line {bad!r}"
            )

    def test_update_out_of_range_vertex_names_it(self, tmp_path, capsys):
        upd = tmp_path / "updates.txt"
        upd.write_text("i 0 999 1.0\n")
        rc = cli.main([
            "update", "--n", "100", "--m", "400", "--updates", str(upd),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: vertex 999 out of range [0, 100)\n"
