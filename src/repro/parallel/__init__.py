"""Parallel execution helpers (process pools, thread shards).

The algorithms in this package are written against the PRAM *cost
model* (:mod:`repro.pram`); this subpackage offers the real-hardware
execution helpers behind them:

* :func:`parallel_map` — a process-pool map for embarrassingly
  parallel outer loops (independent BFS sources, independent
  weight-scale hopsets, benchmark repetitions) with a serial fallback
  when only one core is available or the input is too small.
* :func:`shard_frontier` / :func:`split_indices` / :func:`block_ranges`
  — contiguous block decompositions.  The bucket engine's threaded
  numpy mode shards each relaxation frontier with
  :func:`shard_frontier` and relaxes the shards on a thread pool:
  numpy releases the GIL inside the big gather/scatter ops, so threads
  give genuine multicore throughput there even though pure-Python
  loops would not.
* :func:`effective_workers` — the single source of truth mapping a
  requested ``workers`` value to the worker count actually used
  (``None`` means "all cores"; results are clamped to the machine).
  Every public ``workers=`` parameter defaults to the
  :data:`DEFAULT_WORKERS` sentinel, which resolves through the
  session policy set by :func:`set_default_workers` — so a caller can
  opt the engine calls *inside* the batched builders into parallelism
  once, without threading a ``workers`` argument through every layer.
* :func:`set_shard_mode` / :class:`repro.parallel.process.ForkShardPool`
  — switch the bucket kernels' frontier sharding from threads to
  forked processes with shared-memory label scratch, which also
  parallelizes the GIL-bound claim passes.  Labels and
  ledgers stay bit-identical across modes and worker counts.
"""

from repro.parallel.pool import (
    DEFAULT_WORKERS,
    effective_workers,
    get_default_workers,
    get_shard_mode,
    parallel_map,
    set_default_workers,
    set_shard_mode,
)
from repro.parallel.process import ForkShardPool, fork_available, shared_empty
from repro.parallel.chunking import split_indices, block_ranges, shard_frontier

__all__ = [
    "parallel_map",
    "effective_workers",
    "DEFAULT_WORKERS",
    "set_default_workers",
    "get_default_workers",
    "set_shard_mode",
    "get_shard_mode",
    "ForkShardPool",
    "fork_available",
    "shared_empty",
    "split_indices",
    "block_ranges",
    "shard_frontier",
]
