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

from oracles import engine_kernel
from repro import cli
from repro.dynamic import UpdateBatch, apply_batch, repair_hopset
from repro.errors import ParameterError
from repro.graph import (
    from_edges,
    gnm_random_graph,
    grid_graph,
    with_random_weights,
)
from repro.hopsets import HopsetParams, build_hopset
from repro.paths.dijkstra import dijkstra_scipy
from repro.serve import DistanceServer

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


def _edgeless(n):
    return from_edges(n, np.empty((0, 2), dtype=np.int64))


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

    def test_insert_into_edgeless_graph(self):
        # the insert path used to gather the m = 0 keep mask at id 0
        ar = apply_batch(_edgeless(4), UpdateBatch.from_tuples(inserts=[(0, 3, 2.0)]))
        assert ar.stats["inserted"] == 1
        assert _graph_key(ar.graph) == ([0], [3], [2.0])
        assert ar.inserted_ids.tolist() == [0]

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
def _churn(hs, g, batch, params=PARAMS):
    """One churn step: ``apply_batch`` then ``repair_hopset``."""
    ar = apply_batch(g, batch)
    repaired, info = repair_hopset(hs, ar.graph, ar.touched, params)
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

    def test_requires_structure(self):
        g = _weighted(60, 150, seed=9)
        hs = build_hopset(g, PARAMS, seed=1)  # no record_structure
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
