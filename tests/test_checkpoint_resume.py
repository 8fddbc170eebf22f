"""Durability tier: interrupted builds resume to bit-identical output.

The contract under test: for a *seeded* batched build with a
``checkpoint_path``, killing the process after any number of completed
levels and re-running the identical call yields exactly the edge set of
the uninterrupted build — not approximately, bit for bit.  The kill is
injected deterministically by counting ``est_cluster_forest`` calls
(one per level/round — the builders' only stochastic step), which makes
"died at level k" reproducible without real signals.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hopsets.unweighted as hopset_mod
import repro.spanners.weighted as spanner_mod
from repro.checkpoint import BuildCheckpoint, graph_fingerprint, rng_from_state, rng_state
from repro.errors import GraphFormatError
from repro.graph import from_edges, gnm_random_graph, with_random_weights
from repro.hopsets import build_hopset
from repro.spanners.weighted import weighted_spanner


class SimulatedKill(Exception):
    pass


class _KillSwitch:
    """Raise after ``kill_at`` est_cluster_forest calls (monkeypatch target)."""

    def __init__(self, module, kill_at):
        self.module = module
        self.kill_at = kill_at
        self.calls = 0
        self.orig = module.est_cluster_forest

    def __enter__(self):
        def wrapped(*args, **kwargs):
            self.calls += 1
            if self.calls > self.kill_at:
                raise SimulatedKill()
            return self.orig(*args, **kwargs)

        self.module.est_cluster_forest = wrapped
        return self

    def __exit__(self, *exc):
        self.module.est_cluster_forest = self.orig
        return False


def _hopset_sig(res):
    return (res.eu.tobytes(), res.ev.tobytes(), res.ew.tobytes(), res.kind.tobytes())


class TestHopsetResume:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        kill_at=st.integers(1, 4),
        gseed=st.integers(0, 50),
    )
    def test_kill_at_level_k_resumes_bit_identical(self, seed, kill_at, gseed):
        g = with_random_weights(gnm_random_graph(250, 900, seed=gseed), seed=gseed + 1)
        ref = build_hopset(g, seed=seed)
        with tempfile.TemporaryDirectory() as td:
            cp = os.path.join(td, "h.npz")
            with _KillSwitch(hopset_mod, kill_at):
                try:
                    interrupted = build_hopset(g, seed=seed, checkpoint_path=cp)
                except SimulatedKill:
                    interrupted = None
            if interrupted is not None:
                # the build was short enough to finish before the kill
                assert _hopset_sig(ref) == _hopset_sig(interrupted)
                assert not os.path.exists(cp)
                return
            resumed = build_hopset(g, seed=seed, checkpoint_path=cp)
            assert _hopset_sig(ref) == _hopset_sig(resumed)
            assert not os.path.exists(cp)  # success clears the checkpoint

    def test_level_stats_survive_resume(self, tmp_path):
        g = with_random_weights(gnm_random_graph(300, 1100, seed=5), seed=6)
        ref = build_hopset(g, seed=3)
        cp = tmp_path / "h.npz"
        with _KillSwitch(hopset_mod, 2):
            with pytest.raises(SimulatedKill):
                build_hopset(g, seed=3, checkpoint_path=cp)
        resumed = build_hopset(g, seed=3, checkpoint_path=cp)
        assert [ls.__dict__ for ls in resumed.levels] == [
            ls.__dict__ for ls in ref.levels
        ]

    def test_wrong_seed_refused(self, tmp_path):
        g = with_random_weights(gnm_random_graph(250, 900, seed=1), seed=2)
        cp = tmp_path / "h.npz"
        with _KillSwitch(hopset_mod, 1):
            with pytest.raises(SimulatedKill):
                build_hopset(g, seed=3, checkpoint_path=cp)
        with pytest.raises(GraphFormatError, match="different build"):
            build_hopset(g, seed=4, checkpoint_path=cp)

    def test_wrong_graph_refused(self, tmp_path):
        g1 = with_random_weights(gnm_random_graph(250, 900, seed=1), seed=2)
        g2 = with_random_weights(gnm_random_graph(250, 900, seed=9), seed=2)
        cp = tmp_path / "h.npz"
        with _KillSwitch(hopset_mod, 1):
            with pytest.raises(SimulatedKill):
                build_hopset(g1, seed=3, checkpoint_path=cp)
        with pytest.raises(GraphFormatError, match="different build"):
            build_hopset(g2, seed=3, checkpoint_path=cp)

    def test_one_reweighted_edge_refused(self, tmp_path):
        # edge 80 fell outside the old fingerprint's strided sample
        g1 = with_random_weights(gnm_random_graph(250, 900, seed=1), seed=2)
        w = g1.edge_w.copy()
        w[80] *= 1000.0
        g2 = from_edges(g1.n, np.stack([g1.edge_u, g1.edge_v], axis=1), weights=w)
        assert graph_fingerprint(g1) != graph_fingerprint(g2)
        cp = tmp_path / "h.npz"
        with _KillSwitch(hopset_mod, 1):
            with pytest.raises(SimulatedKill):
                build_hopset(g1, seed=3, checkpoint_path=cp)
        with pytest.raises(GraphFormatError, match="different build"):
            build_hopset(g2, seed=3, checkpoint_path=cp)


class TestSpannerResume:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), kill_at=st.integers(1, 4))
    def test_kill_at_round_k_resumes_bit_identical(self, seed, kill_at):
        g = with_random_weights(
            gnm_random_graph(220, 700, seed=13), seed=14, low=1.0, high=4096.0
        )
        ref = weighted_spanner(g, k=3, seed=seed)
        with tempfile.TemporaryDirectory() as td:
            cp = os.path.join(td, "s.npz")
            with _KillSwitch(spanner_mod, kill_at):
                try:
                    interrupted = weighted_spanner(g, k=3, seed=seed, checkpoint_path=cp)
                except SimulatedKill:
                    interrupted = None
            if interrupted is not None:
                assert np.array_equal(ref.edge_ids, interrupted.edge_ids)
                assert not os.path.exists(cp)
                return
            resumed = weighted_spanner(g, k=3, seed=seed, checkpoint_path=cp)
            assert np.array_equal(ref.edge_ids, resumed.edge_ids)
            assert not os.path.exists(cp)


class TestCheckpointFile:
    def test_atomic_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        rng.random(17)  # advance: the cursor, not just the seed, must survive
        ck = BuildCheckpoint(
            kind="hopset",
            fingerprint="abc",
            level=3,
            rng_states=[rng_state(rng)],
            arrays={"x": np.arange(10), "empty": np.empty(0, np.int8)},
            scalars={"union_n": 7, "level_stats": {"0": {"beta": 0.5}}},
        )
        p = tmp_path / "c.npz"
        ck.save(p)
        back = BuildCheckpoint.load(p)
        assert back.kind == "hopset" and back.level == 3
        assert np.array_equal(back.arrays["x"], np.arange(10))
        assert back.scalars == ck.scalars
        # the restored generator continues the stream exactly
        assert rng_from_state(back.rng_states[0]).random() == rng.random()

    def test_not_a_checkpoint_rejected(self, tmp_path):
        p = tmp_path / "junk.npz"
        np.savez(p, x=np.arange(3))
        with pytest.raises(GraphFormatError):
            BuildCheckpoint.load(p)

    def test_fingerprint_sensitivity(self):
        g1 = with_random_weights(gnm_random_graph(80, 200, seed=1), seed=2)
        g2 = with_random_weights(gnm_random_graph(80, 200, seed=1), seed=3)
        assert graph_fingerprint(g1) != graph_fingerprint(g2)
        assert graph_fingerprint(g1) == graph_fingerprint(g1)
        assert graph_fingerprint(g1, "a") != graph_fingerprint(g1, "b")
