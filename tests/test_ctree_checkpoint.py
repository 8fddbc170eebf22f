"""Durability tier for the cluster-tree driver.

The contract under test: a seeded :func:`build_cluster_tree` with a
``checkpoint_path``, killed after any number of expansions and re-run
with the identical call, yields the *bit-identical* tree of the
uninterrupted build (compared via :meth:`ClusterTree.signature`, which
zeroes only wall-clock timings).  The kill is injected
deterministically by counting ``est_cluster`` calls — the driver's
only stochastic step — exactly like the hopset/spanner resume tests.
A checkpoint written under different inputs (seed, requirement, graph)
must be refused by fingerprint, never silently resumed.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ctree.driver as drv
from repro import checkpoint as _ckpt
from repro.ctree import build_cluster_tree
from repro.graph import barabasi_albert_graph

CKPT_EVERY = drv.CHECKPOINT_EVERY
# the clean build of _graph() makes 71 expansions and 150 est_cluster
# calls; the first save (before expansion 8) follows call 13, so a kill
# at SAVED_KILL leaves a checkpoint on disk
TOTAL_CALLS = 150
SAVED_KILL = 20


class SimulatedKill(Exception):
    pass


class _KillSwitch:
    """Raise after ``kill_at`` est_cluster calls (monkeypatch target)."""

    def __init__(self, kill_at):
        self.kill_at = kill_at
        self.calls = 0
        self.orig = drv.est_cluster

    def __enter__(self):
        def wrapped(*args, **kwargs):
            self.calls += 1
            if self.calls > self.kill_at:
                raise SimulatedKill()
            return self.orig(*args, **kwargs)

        drv.est_cluster = wrapped
        return self

    def __exit__(self, *exc):
        drv.est_cluster = self.orig
        return False


def _graph():
    return barabasi_albert_graph(120, 3, seed=13)


def _build(g, path=None, seed=21, **kw):
    return build_cluster_tree(
        g, "degree:2", seed=seed, checkpoint_path=path, **kw,
    )


@settings(deadline=None, max_examples=8)
@given(kill_at=st.integers(min_value=1, max_value=TOTAL_CALLS - 1))
def test_kill_and_resume_bit_identical(tmp_path_factory, kill_at):
    g = _graph()
    clean = _build(g)
    path = os.path.join(str(tmp_path_factory.mktemp("ckpt")), "ctree.npz")

    with _KillSwitch(kill_at):
        with pytest.raises(SimulatedKill):
            _build(g, path=path)
    # (an early kill may predate the first checkpoint write — resuming
    # from nothing is then just a clean build, also covered here)

    resumed = _build(g, path=path)
    assert resumed.signature() == clean.signature()
    assert not os.path.exists(path), "checkpoint must be cleared on success"


def test_repeated_kills_still_converge(tmp_path):
    g = _graph()
    clean = _build(g)
    path = str(tmp_path / "ctree.npz")
    resumed = None
    # grow the kill point: the driver is deterministic, so a fixed one
    # could land forever on an expansion needing several EST retries
    for attempt in range(200):
        try:
            with _KillSwitch(2 + attempt):
                resumed = _build(g, path=path)
            break
        except SimulatedKill:
            continue
    else:
        pytest.fail("never converged under repeated kills")
    assert resumed.signature() == clean.signature()


def test_wrong_seed_refuses_checkpoint(tmp_path):
    from repro.errors import GraphFormatError

    g = _graph()
    path = str(tmp_path / "ctree.npz")
    with _KillSwitch(SAVED_KILL):
        with pytest.raises(SimulatedKill):
            _build(g, path=path)
    assert os.path.exists(path)

    # same call, different seed: the stale checkpoint is refused loudly
    # (fingerprint includes the entry RNG state), never silently resumed
    with pytest.raises(GraphFormatError, match="different build"):
        _build(g, path=path, seed=99)


def test_wrong_requirement_refuses_checkpoint(tmp_path):
    from repro.errors import GraphFormatError

    g = _graph()
    path = str(tmp_path / "ctree.npz")
    with _KillSwitch(SAVED_KILL):
        with pytest.raises(SimulatedKill):
            _build(g, path=path)

    assert os.path.exists(path)

    # same graph and seed, another requirement: the fingerprint binds
    # the requirement spec, so the checkpoint is refused
    with pytest.raises(GraphFormatError, match="different build"):
        build_cluster_tree(g, "conductance:0.5", seed=21, checkpoint_path=path)


def test_wrong_kind_refused(tmp_path):
    from repro.errors import GraphFormatError

    g = _graph()
    path = str(tmp_path / "ctree.npz")
    with _KillSwitch(SAVED_KILL):
        with pytest.raises(SimulatedKill):
            _build(g, path=path)
    saved = _ckpt.BuildCheckpoint.load(path)
    with pytest.raises(GraphFormatError, match="not"):
        _ckpt.load_if_exists(path, "hopset", saved.fingerprint)


def test_checkpoint_roundtrip_preserves_driver_state(tmp_path):
    g = _graph()
    path = str(tmp_path / "ctree.npz")
    with _KillSwitch(2 * SAVED_KILL):
        with pytest.raises(SimulatedKill):
            _build(g, path=path)
    saved = _ckpt.BuildCheckpoint.load(path)
    nodes, stack, next_id, processed, rng = drv._load_checkpoint(saved)
    assert processed > 0 and processed % CKPT_EVERY == 0
    assert next_id == max(nodes) + 1
    assert all(i in nodes for i in stack)
    for nid, nd in nodes.items():
        assert nd.id == nid
        assert nd.vertices.shape[0] == nd.stats.size
