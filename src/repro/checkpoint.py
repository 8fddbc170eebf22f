"""Durable build checkpoints for the level-synchronous builders.

A multi-hour build at n = 10^7 must survive its process dying.  Both
level-synchronous builders (:func:`repro.hopsets.build_hopset` and
:func:`repro.spanners.weighted_spanner`)
execute as a short loop of *levels* whose complete inter-level state is
a handful of arrays plus the per-subproblem RNG streams.  That makes
level boundaries natural checkpoint cuts: serialize the state before
level ``t`` runs, and a resumed build re-enters the loop at ``t`` with
bit-identical arrays and RNG cursors — so the finished edge set equals
the uninterrupted run's **bit for bit** (pinned by
``tests/test_checkpoint_resume.py``).  Both builders save at every
level boundary after the first; the cluster-tree driver
(:mod:`repro.ctree.driver`) saves its work stack every
``CHECKPOINT_EVERY`` (8) expansions.  Neither cadence is a parameter.

Format: one ``.npz`` with the numpy state plus a JSON member carrying
scalars, RNG ``bit_generator`` states (exact integer state — never
re-seeded), and a *fingerprint* of the build inputs.  Loading refuses a
checkpoint whose fingerprint does not match the current call — a
checkpoint from a different graph, parameter set, or seed silently
producing a franken-build is the failure mode this guards against.

Writes are atomic (tmp file + ``os.replace``), so a crash during
checkpointing leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.errors import GraphFormatError

PathLike = Union[str, "os.PathLike[str]"]

CHECKPOINT_FORMAT = 1


def graph_fingerprint(g: Any, *extra: object) -> str:
    """Cheap content hash binding a checkpoint to its build inputs.

    Hashes the graph's shape plus a bounded sample of its edge arrays
    (ends + strided middle) — O(1) regardless of graph size, yet any
    realistic "wrong graph / wrong parameters / wrong seed" mixup
    changes it.  ``extra`` values (params, k, seed material) are folded
    in via their ``repr``.
    """
    h = hashlib.sha256()
    h.update(f"n={g.n};m={g.m};".encode())
    for arr in (g.edge_u, g.edge_v, g.edge_w):
        a = np.asarray(arr)
        if a.shape[0] > 256:
            sample = np.concatenate([a[:64], a[:: max(1, a.shape[0] // 128)], a[-64:]])
        else:
            sample = a
        h.update(np.ascontiguousarray(sample).tobytes())
    for x in extra:
        h.update(repr(x).encode())
    return h.hexdigest()


def rng_state(rng: np.random.Generator) -> dict:
    """JSON-able exact state of a generator (arbitrary-size ints are fine)."""
    return rng.bit_generator.state


def rng_from_state(state: dict) -> np.random.Generator:
    """Rebuild a generator positioned exactly at ``state``."""
    bg = getattr(np.random, state["bit_generator"])()
    bg.state = state
    return np.random.Generator(bg)


@dataclass
class BuildCheckpoint:
    """Serialized inter-level state of one batched build."""

    kind: str  # "hopset" | "spanner"
    fingerprint: str
    level: int  # next level/round index to execute
    rng_states: List[dict]
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    scalars: Dict[str, object] = field(default_factory=dict)

    def save(self, path: PathLike) -> None:
        """Atomically write; a crash mid-write keeps the old file."""
        header = json.dumps(
            {
                "format": CHECKPOINT_FORMAT,
                "kind": self.kind,
                "fingerprint": self.fingerprint,
                "level": self.level,
                "rng_states": self.rng_states,
                "scalars": self.scalars,
            }
        )
        tmp = f"{os.fspath(path)}.tmp"
        with open(tmp, "wb") as f:
            np.savez(
                f,
                __header__=np.frombuffer(header.encode(), dtype=np.uint8),
                **self.arrays,
            )
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: PathLike) -> "BuildCheckpoint":
        with np.load(path) as data:
            if "__header__" not in data.files:
                raise GraphFormatError(f"not a build checkpoint: {path}")
            header = json.loads(bytes(data["__header__"]).decode())
            if header.get("format") != CHECKPOINT_FORMAT:
                raise GraphFormatError(
                    f"unsupported checkpoint format {header.get('format')} in {path}"
                )
            arrays = {k: data[k] for k in data.files if k != "__header__"}
        return cls(
            kind=header["kind"],
            fingerprint=header["fingerprint"],
            level=int(header["level"]),
            rng_states=header["rng_states"],
            arrays=arrays,
            scalars=header["scalars"],
        )

    def check(self, kind: str, fingerprint: str, path: PathLike) -> None:
        """Refuse to resume a checkpoint from different build inputs."""
        if self.kind != kind:
            raise GraphFormatError(
                f"checkpoint {path} is a {self.kind!r} build, not {kind!r}"
            )
        if self.fingerprint != fingerprint:
            raise GraphFormatError(
                f"checkpoint {path} was written by a different build "
                "(graph/parameters/seed fingerprint mismatch); delete it to "
                "start over"
            )


def load_if_exists(
    path: Optional[PathLike], kind: str, fingerprint: str
) -> Optional[BuildCheckpoint]:
    """The validated checkpoint at ``path``, or None to start fresh."""
    if path is None or not os.path.exists(path):
        return None
    ckpt = BuildCheckpoint.load(path)
    ckpt.check(kind, fingerprint, path)
    return ckpt


def clear(path: Optional[PathLike]) -> None:
    """Remove a finished build's checkpoint (missing file is fine)."""
    if path is not None and os.path.exists(path):
        os.remove(path)
