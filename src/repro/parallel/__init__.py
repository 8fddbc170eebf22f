"""Real-hardware execution helpers (worker policy, frontier shards).

The algorithms in this package are written against the PRAM *cost
model* (:mod:`repro.pram`); this subpackage holds what the bucket
engine and the distributed simulator need to run them on real cores:

* :func:`shard_frontier` — contiguous near-equal shards of a
  relaxation frontier.  The bucket engine's numpy kernels relax the
  shards on a thread pool: numpy releases the GIL inside the big
  gather ops, so threads give genuine multicore throughput there even
  though pure-Python loops would not.  Labels and ledgers stay
  bit-identical for every worker count.
* :func:`effective_workers` — the single source of truth mapping a
  requested ``workers`` value to the worker count actually used
  (``None`` means "all cores"; results are clamped to the machine).
  Every public ``workers=`` parameter defaults to the
  :data:`DEFAULT_WORKERS` sentinel, which resolves through the
  session policy set by :func:`set_default_workers` — so a caller can
  opt the engine calls *inside* the batched builders into parallelism
  once, without threading a ``workers`` argument through every layer.
"""

from repro.parallel.pool import (
    DEFAULT_WORKERS,
    effective_workers,
    get_default_workers,
    set_default_workers,
)
from repro.parallel.chunking import shard_frontier

__all__ = [
    "effective_workers",
    "DEFAULT_WORKERS",
    "set_default_workers",
    "get_default_workers",
    "shard_frontier",
]
