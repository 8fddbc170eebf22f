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

import repro.checkpoint as checkpoint_mod
import repro.ctree.driver as ctree_mod
import repro.hopsets.unweighted as hopset_mod
import repro.spanners.weighted as spanner_mod
from repro.checkpoint import BuildCheckpoint, graph_fingerprint, rng_from_state, rng_state
from repro.ctree import build_cluster_tree
from repro.errors import GraphFormatError
from repro.graph import barabasi_albert_graph, from_edges, gnm_random_graph, with_random_weights
from repro.graph.unionfind import find_roots
from repro.hopsets import HopsetParams, build_hopset
from repro.rng import resolve_rng
from repro.spanners.weighted import weighted_spanner


class SimulatedKill(Exception):
    pass


class _KillSwitch:
    """Raise after ``kill_at`` calls of ``module.<name>`` (monkeypatch target)."""

    def __init__(self, module, kill_at, name="est_cluster_forest"):
        self.module = module
        self.name = name
        self.kill_at = kill_at
        self.calls = 0
        self.orig = getattr(module, name)

    def __enter__(self):
        def wrapped(*args, **kwargs):
            self.calls += 1
            if self.calls > self.kill_at:
                raise SimulatedKill()
            return self.orig(*args, **kwargs)

        setattr(self.module, self.name, wrapped)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.orig)
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

    def test_format_1_checkpoint_refused(self, tmp_path, monkeypatch):
        # a format-1 hopset checkpoint held the level's union CSR and no
        # level-0 labels: resuming it must fail typed, naming the format
        g = with_random_weights(gnm_random_graph(250, 900, seed=1), seed=2)
        fp = graph_fingerprint(
            g, HopsetParams(), g.n, "auto", rng_state(resolve_rng(3))
        )
        csr = ("indptr", "indices", "weights", "edge_ids", "edge_u", "edge_v", "edge_w")
        arrays = {f"g_{name}": getattr(g, name) for name in csr}
        arrays.update(vmap=np.arange(g.n), ptr=np.asarray([0, g.n]))
        cp = tmp_path / "h.npz"
        with monkeypatch.context() as m:
            m.setattr(checkpoint_mod, "CHECKPOINT_FORMAT", 1)
            BuildCheckpoint(
                kind="hopset",
                fingerprint=fp,
                level=1,
                rng_states=[rng_state(resolve_rng(4))],
                arrays=arrays,
                scalars={"union_n": g.n, "level_stats": {}},
            ).save(cp)
        with pytest.raises(GraphFormatError, match="format 1"):
            build_hopset(g, seed=3, checkpoint_path=cp)
        assert os.path.exists(cp)  # refused, not silently cleared


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

    @pytest.mark.parametrize("kill_at", [1, 2, 3])
    def test_union_find_layout_resumes(self, tmp_path, kill_at):
        # checkpoints written while the spanner contracted through a
        # UnionFind hold its parent forest (any shape, roots minimal),
        # its sizes and its component count; they must keep resuming
        g = with_random_weights(
            gnm_random_graph(220, 700, seed=13), 1.0, 2.0**16, "loguniform", seed=14
        )
        ref = weighted_spanner(g, k=3, seed=5)
        cp = tmp_path / "s.npz"
        with _KillSwitch(spanner_mod, kill_at):
            with pytest.raises(SimulatedKill):
                weighted_spanner(g, k=3, seed=5, checkpoint_path=cp)
        ck = BuildCheckpoint.load(cp)
        assert ck.level == kill_at
        parent = ck.arrays["uf_parent"]
        ids = np.arange(parent.shape[0])
        roots = find_roots(parent.copy(), ids)
        # uncompressed: each member hangs off the next smaller one of
        # its component, so the root (the minimum) heads a chain
        order = np.lexsort((ids, roots))
        same = roots[order[1:]] == roots[order[:-1]]
        chain = ids.copy()
        chain[order[1:][same]] = order[:-1][same]
        assert (chain != roots).any()
        sizes = np.ones_like(ids)
        top = np.flatnonzero(roots == ids)
        sizes[top] = np.bincount(roots)[top]
        ck.arrays.update(uf_parent=chain, uf_size=sizes)
        ck.scalars["uf_components"] = int(top.shape[0])
        ck.save(cp)
        resumed = weighted_spanner(g, k=3, seed=5, checkpoint_path=cp)
        assert np.array_equal(ref.edge_ids, resumed.edge_ids)


def _save_levels(monkeypatch):
    """Every level written through ``BuildCheckpoint.save``, in order."""
    levels = []
    orig = BuildCheckpoint.save

    def spy(self, path):
        levels.append(self.level)
        orig(self, path)

    monkeypatch.setattr(BuildCheckpoint, "save", spy)
    return levels


def _loops():
    """(build with a checkpoint path, kill module, kill target, kill count,
    output signature) per resumable loop; the cluster-tree driver races
    with ``est_cluster``.  Each kill leaves a checkpoint that a later
    level of the resumed run overwrites."""
    g = with_random_weights(gnm_random_graph(300, 1100, seed=5), seed=6)
    gs = with_random_weights(
        gnm_random_graph(220, 700, seed=13), seed=14, low=1.0, high=4096.0
    )
    ba = barabasi_albert_graph(120, 3, seed=13)
    return {
        "hopset": (
            lambda cp: build_hopset(g, seed=3, checkpoint_path=cp),
            hopset_mod, "est_cluster_forest", 1, _hopset_sig,
        ),
        "spanner": (
            lambda cp: weighted_spanner(gs, k=3, seed=3, checkpoint_path=cp),
            spanner_mod, "est_cluster_forest", 1, lambda sp: sp.edge_ids.tobytes(),
        ),
        "ctree": (
            lambda cp: build_cluster_tree(ba, "degree:2", seed=21, checkpoint_path=cp),
            ctree_mod, "est_cluster", 20, lambda tree: tree.signature(),
        ),
    }


@pytest.mark.parametrize("loop", ["hopset", "spanner", "ctree"])
def test_resumed_loop_keeps_the_checkpoint_it_loaded(tmp_path, monkeypatch, loop):
    build, module, target, kill_at, sig = _loops()[loop]
    ref = sig(build(None))
    cp = tmp_path / "c.npz"
    levels = _save_levels(monkeypatch)
    with _KillSwitch(module, kill_at, target):
        with pytest.raises(SimulatedKill):
            build(cp)
    resumed_from = BuildCheckpoint.load(cp).level
    levels.clear()
    assert sig(build(cp)) == ref
    # the file on disk is that level's cut: writing it again is waste
    assert levels and min(levels) > resumed_from, (resumed_from, levels)


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

    def test_no_path_hashes_and_packs_nothing(self, monkeypatch):
        # every loop calls its cut unconditionally; without a path the
        # cut must neither fingerprint the graph nor pack any state
        def refuse(*args, **kwargs):
            raise AssertionError("checkpoint work without a checkpoint path")

        monkeypatch.setattr(checkpoint_mod, "graph_fingerprint", refuse)
        monkeypatch.setattr(hopset_mod._Collector, "state", refuse)
        monkeypatch.setattr(spanner_mod, "_round_state", refuse)
        monkeypatch.setattr(ctree_mod, "_driver_state", refuse)
        g = with_random_weights(
            gnm_random_graph(220, 700, seed=13), seed=14, low=1.0, high=4096.0
        )
        # each loop reaches an iteration that would save
        assert len(build_hopset(g, seed=3).levels) >= 2
        spanner = weighted_spanner(g, k=3, seed=3)
        assert spanner.meta["num_buckets"] > spanner.meta["num_groups"]
        tree = build_cluster_tree(barabasi_albert_graph(120, 3, seed=13), "degree:2", seed=21)
        assert len(tree.nodes) > ctree_mod.CHECKPOINT_EVERY
