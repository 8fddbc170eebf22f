"""Process-pool map, worker policy, and graceful serial fallback.

Mirrors the mpi4py/master-worker idiom from the domain guides: the
caller expresses "apply f to each item independently"; the executor
decides whether fan-out is worthwhile.  On a single-core box (or for
tiny inputs) it runs serially — identical results, no pickling tax.

This module is also the single source of truth for two session-wide
execution knobs:

* the **workers default policy** — every public ``workers=`` parameter
  in the repo defaults to the :data:`DEFAULT_WORKERS` sentinel, which
  :func:`effective_workers` resolves through
  :func:`set_default_workers`.  Out of the box the policy is ``1``
  (serial, the historical default), but a caller about to run a
  batched builder can opt the *inner* engine calls into parallelism
  once, instead of threading a ``workers`` argument through every
  layer by hand.
* the **shard mode** — whether the bucket kernels split relaxation
  rounds across threads (default; numpy releases the GIL inside the
  big gathers) or across forked processes
  (:mod:`repro.parallel.process`; sidesteps the GIL entirely for the
  claim-merge passes, which hold it).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar, Union

T = TypeVar("T")
R = TypeVar("R")


# ceiling for explicitly requested thread oversubscription — a typo'd
# ``workers=10**6`` must not allocate a million-thread pool
_MAX_OVERSUBSCRIBED = 64


class _DefaultWorkers:
    """Sentinel type for "follow the session worker policy"."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "DEFAULT_WORKERS"


#: Default value of every ``workers=`` parameter in the repo: resolve
#: through the session policy (:func:`set_default_workers`) at call
#: time.  Passing an explicit int or ``None`` always overrides it.
DEFAULT_WORKERS = _DefaultWorkers()

WorkersArg = Union[int, None, _DefaultWorkers]

_default_workers: Optional[int] = 1
_shard_mode: str = "thread"

SHARD_MODES = ("thread", "process")


def set_default_workers(workers: Optional[int]) -> Optional[int]:
    """Set the session-wide worker policy behind :data:`DEFAULT_WORKERS`.

    ``workers`` follows the usual convention: an int is a cap, ``None``
    means "all cores".  Returns the previous policy so callers (tests,
    context-scoped benchmark sections) can restore it.
    """
    global _default_workers
    if workers is not None:
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers policy must be >= 1 or None, got {workers}")
    prev = _default_workers
    _default_workers = workers
    return prev


def get_default_workers() -> Optional[int]:
    """Current worker policy applied wherever callers pass
    :data:`DEFAULT_WORKERS` (i.e. don't say otherwise)."""
    return _default_workers


def set_shard_mode(mode: str) -> str:
    """Select how the bucket kernels shard big relaxation frontiers:
    ``"thread"`` (default) or ``"process"`` (fork-based, see
    :mod:`repro.parallel.process`).  Returns the previous mode."""
    global _shard_mode
    if mode not in SHARD_MODES:
        raise ValueError(f"shard mode must be one of {SHARD_MODES}, got {mode!r}")
    prev = _shard_mode
    _shard_mode = mode
    return prev


def get_shard_mode() -> str:
    """Current frontier shard mode (``"thread"`` or ``"process"``)."""
    return _shard_mode


def effective_workers(
    requested: WorkersArg = None, oversubscribe: bool = False
) -> int:
    """Number of workers to actually use — the single source of truth
    behind every ``workers=`` knob in the repo.

    ``None`` means "use all cores"; the result is clamped to
    ``os.cpu_count()`` and is 1 on single-core machines, which makes
    :func:`parallel_map` fall back to a plain loop.
    :data:`DEFAULT_WORKERS` resolves to the session policy
    (:func:`set_default_workers`) first, then follows the same rules.
    With ``oversubscribe=True`` (thread-pool callers: threads are cheap
    and GIL-released numpy work interleaves fine) an *explicit* request
    may exceed the core count — the bucket kernels use this so a
    requested worker count behaves identically on every machine, which
    is also what lets single-core CI exercise the sharded code path.
    """
    if isinstance(requested, _DefaultWorkers):
        requested = _default_workers
    avail = os.cpu_count() or 1
    if requested is None:
        return avail
    if oversubscribe:
        return max(1, min(requested, _MAX_OVERSUBSCRIBED))
    return max(1, min(requested, avail))


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
    min_items_per_worker: int = 2,
) -> List[R]:
    """Apply ``fn`` to every item, fanning out to processes when useful.

    Serial execution is chosen when (a) one worker is effective, or
    (b) the item count is too small to keep the *effective* worker
    count busy (``min_items_per_worker`` items each) — a 16-core box
    must not spin up a full process pool for a handful of items.  The
    corollary: on a many-core machine a mid-size batch of *expensive*
    items should pass a smaller ``min_items_per_worker`` (1 forks as
    soon as every worker can get one item); the default trades those
    forks away because pickling + fork overhead usually loses on
    cheap items.  The function must be picklable (module-level) for
    the parallel path; the serial path has no such restriction, so
    tests exercise both.
    """
    n = effective_workers(workers)
    if n <= 1 or len(items) < min_items_per_worker * n:
        # the guard scales with the effective worker count, so past it
        # every one of the n workers is guaranteed a full chunk
        return [fn(x) for x in items]
    chunksize = -(-len(items) // n)  # ceil: one contiguous chunk per worker
    with ProcessPoolExecutor(max_workers=n) as ex:
        return list(ex.map(fn, items, chunksize=chunksize))
