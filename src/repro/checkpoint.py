"""Durable checkpoints for the resumable loops.

A multi-hour build at n = 10^7 must survive its process dying.  Three
loops can resume: the hopset levels of
:func:`repro.hopsets.build_hopset`, the weight rounds of
:func:`repro.spanners.weighted_spanner`, and the work stack of
:func:`repro.ctree.build_cluster_tree`.  Each one's state between two
iterations is a handful of arrays plus its RNG streams, so iteration
boundaries are natural checkpoint cuts: serialize the state before
iteration ``t`` runs, and a resumed loop re-enters at ``t`` with
bit-identical arrays and RNG cursors, so the finished output equals
the uninterrupted run's **bit for bit** (pinned by
``tests/test_checkpoint_resume.py`` and
``tests/test_ctree_checkpoint.py``).  The builders save before every
level or round after the first; the cluster-tree driver saves every
``CHECKPOINT_EVERY`` (8) expansions.  Neither cadence is a parameter.

Every loop goes through one :class:`CheckpointCut`: built once per call
from the loop's inputs, it offers ``resume``, ``save`` and ``clear``,
and each is a no-op without a path.  ``save`` takes a callable that
packs the state, so a call without a path hashes and packs nothing,
and it skips the level ``resume`` returned: that file is on disk.

Format: one ``.npz`` with the numpy state plus a JSON member carrying
scalars, RNG ``bit_generator`` states (exact integer state — never
re-seeded), and a *fingerprint* of the loop's inputs.  Loading refuses
a checkpoint whose fingerprint does not match the current call — a
checkpoint from a different graph, parameter set, or seed silently
producing a franken-build is the failure mode this guards against —
and one written in another format (format 1 hopset checkpoints held
the level's union CSR; format 2 holds its vertex lists).

Writes are atomic (tmp file + ``os.replace``), so a crash during
checkpointing leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError

PathLike = Union[str, "os.PathLike[str]"]

CHECKPOINT_FORMAT = 2

#: what a loop's pack callable returns: (arrays, JSON-able scalars)
State = Tuple[Dict[str, np.ndarray], Dict[str, Any]]


def graph_fingerprint(g: Any, *extra: object) -> str:
    """Content hash binding a checkpoint or saved hopset to its inputs.

    Hashes the graph's shape and its complete edge arrays, so any
    changed endpoint or weight changes it: a sample would miss a single
    reweighted edge, and a hopset built before the change would then
    serve distances shorter than the graph's.  The cost is one sha256
    pass over ``m`` edges (about 1 s at m = 5e7), paid once per build
    or load.  ``extra`` values (params, k, seed material) are folded in
    via their ``repr``.
    """
    h = hashlib.sha256()
    h.update(f"n={g.n};m={g.m};".encode())
    for arr in (g.edge_u, g.edge_v, g.edge_w):
        h.update(np.ascontiguousarray(arr).tobytes())
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
    """Serialized state of one resumable loop between two iterations."""

    kind: str  # "hopset" | "spanner" | "ctree"
    fingerprint: str
    level: int  # next level, round or expansion count to execute
    rng_states: List[dict]
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    scalars: Dict[str, Any] = field(default_factory=dict)

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

    def generators(self) -> List[np.random.Generator]:
        """The saved RNG streams, each positioned exactly at its cursor."""
        return [rng_from_state(s) for s in self.rng_states]

    @classmethod
    def load(cls, path: PathLike) -> "BuildCheckpoint":
        with np.load(path) as data:
            if "__header__" not in data.files:
                raise GraphFormatError(f"not a build checkpoint: {path}")
            header = json.loads(bytes(data["__header__"]).decode())
            if header.get("format") != CHECKPOINT_FORMAT:
                raise GraphFormatError(
                    f"unsupported checkpoint format {header.get('format')} in {path} "
                    f"(this version reads format {CHECKPOINT_FORMAT}); delete it to "
                    "start over"
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


def load_if_exists(
    path: Optional[PathLike], kind: str, fingerprint: str
) -> Optional[BuildCheckpoint]:
    """The checkpoint at ``path``, or None to start fresh; one written by
    another kind of loop or from different inputs is refused."""
    if path is None or not os.path.exists(path):
        return None
    ckpt = BuildCheckpoint.load(path)
    if ckpt.kind != kind:
        raise GraphFormatError(f"checkpoint {path} is a {ckpt.kind!r} build, not {kind!r}")
    if ckpt.fingerprint != fingerprint:
        raise GraphFormatError(
            f"checkpoint {path} was written by a different build "
            "(graph/parameters/seed fingerprint mismatch); delete it to "
            "start over"
        )
    return ckpt


class CheckpointCut:
    """The checkpoint of one resumable loop: ``resume``, ``save``, ``clear``.

    ``g`` and ``extra`` are the loop's inputs; the fingerprint binding
    the file to them is taken here, and only when there is a ``path``.
    Without one, every method is a no-op.
    """

    def __init__(self, path: Optional[PathLike], kind: str, g: Any, *extra: object) -> None:
        self.path = path
        self.kind = kind
        self.fingerprint = "" if path is None else graph_fingerprint(g, *extra)
        self.resumed: Optional[int] = None

    def resume(self) -> Optional[BuildCheckpoint]:
        """The validated checkpoint to resume from, or None to start fresh."""
        saved = load_if_exists(self.path, self.kind, self.fingerprint)
        if saved is not None:
            self.resumed = saved.level
        return saved

    def save(
        self,
        level: int,
        rngs: Sequence[np.random.Generator],
        pack: Callable[[], State],
    ) -> None:
        """Write ``pack()``'s state and the cursors of ``rngs`` as the cut
        before iteration ``level``; ``pack`` runs only when there is a
        path, and not for the level the loop resumed from."""
        if self.path is None or level == self.resumed:
            return
        arrays, scalars = pack()
        BuildCheckpoint(
            kind=self.kind,
            fingerprint=self.fingerprint,
            level=level,
            rng_states=[rng_state(r) for r in rngs],
            arrays=arrays,
            scalars=scalars,
        ).save(self.path)

    def clear(self) -> None:
        """Remove a finished loop's checkpoint (a missing file is fine)."""
        if self.path is not None and os.path.exists(self.path):
            os.remove(self.path)
