"""Dynamic-graph suite: UpdateBatch semantics and metamorphic repair laws.

Incremental repair may legitimately emit different edges than a fresh
rebuild, so correctness is pinned at the *guarantee* level:

* **inverse law** — applying a batch and then its exact inverse
  restores the hopset edge multiset bit for bit (per-block rebuilds
  are seeded), restores served distances, and keeps every spanner
  guarantee intact;
* **differential law** — after *every* batch the repaired structure
  passes the same verifiers (`verify_edge_weights`, `verify_spanner`,
  `stretch_summary`, exact full-convergence serving) as the full
  seeded rebuild oracle on the same graph;
* **determinism** — one seed and one batch sequence produce identical
  repaired edge sets at any ``workers=`` and on every backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.analysis.stretch import stretch_summary
from repro.dynamic import DynamicHopset, DynamicSpanner, UpdateBatch, apply_batch
from repro.errors import ParameterError
from repro.graph import (
    gnm_random_graph,
    grid_graph,
    with_random_weights,
)
from repro.hopsets import HopsetParams, build_hopset
from repro.paths.dijkstra import dijkstra_scipy
from repro.serve import DistanceServer
from repro.spanners.verify import verify_spanner

PARAMS = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.5)


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
        with pytest.raises(ParameterError):
            UpdateBatch.from_tuples(inserts=[(0, 1, -1.0)])
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
        assert float(ar.graph.edge_w[ar.reweighted_ids[0]]) == w + 1
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
        ar = apply_batch(g, _random_batch(g, seed=7))
        keys = ar.graph.edge_u * ar.graph.n + ar.graph.edge_v
        assert np.all(np.diff(keys) > 0)
        # old_to_new maps surviving ids onto identical endpoint pairs
        kept = np.flatnonzero(ar.old_to_new >= 0)
        assert np.array_equal(g.edge_u[kept], ar.graph.edge_u[ar.old_to_new[kept]])
        assert np.array_equal(g.edge_v[kept], ar.graph.edge_v[ar.old_to_new[kept]])


# ----------------------------------------------------------------------
# hopset repair
# ----------------------------------------------------------------------
class TestDynamicHopset:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_inverse_restores_hopset_and_serving(self, seed):
        g = _weighted(120, 320, seed=5)
        dh = DynamicHopset.build(g, params=PARAMS, seed=17)
        original = _hopset_key(dh.result)
        row0 = DistanceServer(dh.result, cache_rows=0).distance_row(0)
        info = dh.apply(_random_batch(g, seed))
        dh.result.verify_edge_weights()
        dh.apply(info["inverse"])
        assert _hopset_key(dh.result) == original
        assert _graph_key(dh.graph) == _graph_key(g)
        row1 = DistanceServer(dh.result, cache_rows=0).distance_row(0)
        assert np.array_equal(row0, row1)

    def test_differential_vs_full_rebuild_every_batch(self):
        g = _weighted(150, 400, seed=6)
        dh = DynamicHopset.build(g, params=PARAMS, seed=23)
        for step in range(3):
            dh.apply(_random_batch(dh.graph, seed=100 + step))
            # guarantee level: Definition 2.4 on the repaired structure
            dh.result.verify_edge_weights()
            oracle = dh.rebuild(seed=23)
            oracle.verify_edge_weights()
            # both serve exact distances at full convergence
            want = dijkstra_scipy(dh.graph, 3)
            for hs in (dh.result, oracle):
                got = DistanceServer(hs, cache_rows=0).distance_row(3)
                assert np.allclose(got, want)

    @pytest.mark.parametrize("backend", ["numpy", "reference"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_determinism_across_backends_and_workers(self, backend, workers):
        g = _weighted(140, 360, seed=7)
        base = DynamicHopset.build(g, params=PARAMS, seed=31)
        base.apply(_random_batch(g, seed=41))
        base.apply(_random_batch(base.graph, seed=42))
        other = DynamicHopset.build(
            g, params=PARAMS, seed=31, backend=backend, workers=workers
        )
        other.apply(_random_batch(g, seed=41))
        other.apply(_random_batch(other.graph, seed=42))
        assert _hopset_key(base.result) == _hopset_key(other.result)

    def test_locality_on_high_diameter_graph(self):
        g = _weighted_grid(24, 24, seed=8)
        # larger beta0 (smaller gamma2) so level 0 splits the grid into
        # many blocks — the locality the repair exploits
        local = HopsetParams(epsilon=0.5, delta=1.5, gamma1=0.15, gamma2=0.3)
        dh = DynamicHopset.build(g, params=local, seed=13)
        assert dh.result.structure.num_blocks > 1
        # a single-edge change dirties few blocks and keeps the rest
        u, v = int(g.edge_u[0]), int(g.edge_v[0])
        info = dh.apply(UpdateBatch.from_tuples(deletes=[(u, v)]))
        assert info["dirty_blocks"] < dh.result.structure.num_blocks
        assert info["kept_edges"] > 0
        dh.result.verify_edge_weights()

    def test_requires_structure(self):
        g = _weighted(60, 150, seed=9)
        hs = build_hopset(g, PARAMS, seed=1)  # no record_structure
        from repro.dynamic.hopset import repair_hopset

        with pytest.raises(ParameterError):
            repair_hopset(hs, g, np.array([0]), params=PARAMS)

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
# spanner repair
# ----------------------------------------------------------------------
class TestDynamicSpanner:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_guarantee_after_batch_and_inverse(self, seed):
        g = _weighted(120, 420, seed=11)
        ds = DynamicSpanner.build(g, k=2, seed=19)
        bound = ds.result.stretch_bound
        info = ds.apply(_random_batch(g, seed))
        assert ds.result.stretch_bound == bound
        verify_spanner(ds.graph, ds.result, sample_edges=200, seed=1)
        ds.apply(info["inverse"])
        assert _graph_key(ds.graph) == _graph_key(g)
        verify_spanner(ds.graph, ds.result, sample_edges=200, seed=1)

    def test_differential_vs_rebuild_every_batch(self):
        g = _weighted(130, 450, seed=12)
        ds = DynamicSpanner.build(g, k=2, seed=29)
        for step in range(3):
            ds.apply(_random_batch(ds.graph, seed=200 + step))
            verify_spanner(ds.graph, ds.result, sample_edges=200, seed=2)
            oracle = ds.rebuild(seed=29)
            verify_spanner(ds.graph, oracle, sample_edges=200, seed=2)
            s_inc = stretch_summary(ds.graph, ds.result, sample_edges=200, seed=3)
            s_full = stretch_summary(ds.graph, oracle, sample_edges=200, seed=3)
            assert s_inc.max <= ds.result.stretch_bound + 1e-9
            assert s_full.max <= oracle.stretch_bound + 1e-9

    @pytest.mark.parametrize("workers", [1, 2])
    def test_determinism(self, workers):
        g = _weighted(110, 380, seed=13)
        a = DynamicSpanner.build(g, k=2, seed=37)
        b = DynamicSpanner.build(g, k=2, seed=37, workers=workers)
        for step in range(2):
            a.apply(_random_batch(a.graph, seed=300 + step))
            b.apply(_random_batch(b.graph, seed=300 + step))
        assert np.array_equal(a.result.edge_ids, b.result.edge_ids)

    def test_rebuild_threshold_fallback(self):
        g = _weighted(80, 200, seed=14)
        ds = DynamicSpanner.build(g, k=2, seed=43, rebuild_threshold=0.01)
        info = ds.apply(_random_batch(g, seed=5, n_ins=30, n_del=30))
        assert info["rebuilt"] == 1
        verify_spanner(ds.graph, ds.result, sample_edges=200, seed=4)

    def test_unweighted_dispatch(self):
        g = gnm_random_graph(90, 260, seed=15, connected=True)
        ds = DynamicSpanner.build(g, k=2, seed=47)
        # unweighted graphs route to the unweighted builder; churn with
        # unit-weight inserts keeps the graph unweighted
        rng = np.random.default_rng(0)
        eid = rng.choice(g.m, size=6, replace=False)
        batch = UpdateBatch(
            insert_u=rng.integers(0, g.n, 6),
            insert_v=rng.integers(0, g.n, 6),
            insert_w=np.ones(6),
            delete_u=g.edge_u[eid],
            delete_v=g.edge_v[eid],
        )
        ds.apply(batch)
        verify_spanner(ds.graph, ds.result, sample_edges=200, seed=5)


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

    def test_update_hop_budget_verify_names_its_check(self, tmp_path, capsys):
        # h-hop rows may sit above Dijkstra, so --verify can promise only
        # that they never undercut it — and must say so
        upd = tmp_path / "updates.txt"
        upd.write_text("# churn\ni 3 90 2.5\nd 0 1\ni 5 70 1.0\n")
        rc = cli.main([
            "update", "--n", "120", "--m", "480", "--seed", "4", "--hops", "3",
            "--updates", str(upd), "--batch", "2", "--verify",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "edge validity (Definition 2.4 item 2)" in out
        assert "4 served rows (h=3) never fall below Dijkstra" in out

    def test_update_hop_budget_verify_catches_undercut(self, tmp_path, capsys, monkeypatch):
        from repro.serve import DistanceServer

        served = DistanceServer.distance_row
        monkeypatch.setattr(
            DistanceServer, "distance_row",
            lambda self, s: served(self, s) - 1.0,
        )
        upd = tmp_path / "updates.txt"
        upd.write_text("d 0 1\n")
        rc = cli.main([
            "update", "--n", "120", "--m", "480", "--seed", "4", "--hops", "3",
            "--updates", str(upd), "--verify",
        ])
        assert rc == 1
        assert "falls below Dijkstra" in capsys.readouterr().err

    def test_update_malformed_line(self, tmp_path, capsys):
        upd = tmp_path / "updates.txt"
        upd.write_text("x 1 2\n")
        rc = cli.main([
            "update", "--n", "60", "--m", "150", "--updates", str(upd),
        ])
        assert rc == 2
        assert "malformed" in capsys.readouterr().err
