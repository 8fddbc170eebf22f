"""Worker policy for the numba backend's ``prange`` batch cores.

The algorithms in this package are written against the PRAM *cost
model* (:mod:`repro.pram`), which charges work and depth the same for
every worker count.  On real cores only the numba kernel's batch
wrappers run threads — one ``prange`` iteration per run of a batch —
and this subpackage holds the policy that caps them:

* :func:`effective_workers` — the single source of truth mapping a
  requested ``workers`` value to the core count actually used
  (``None`` means "all cores"; results are clamped to the machine).
  Every public ``workers=`` parameter defaults to the
  :data:`DEFAULT_WORKERS` sentinel, which resolves through the
  session policy set by :func:`set_default_workers` — so a caller can
  cap the engine calls *inside* the batched builders once, without
  threading a ``workers`` argument through every layer.

The numpy kernels and the network simulator run serially: thread
fan-out there measured at most ~1.16x of serial on 2 cores (the
simulator ran slower than serial) and was removed.
"""

from repro.parallel.pool import (
    DEFAULT_WORKERS,
    effective_workers,
    get_default_workers,
    set_default_workers,
)

__all__ = [
    "effective_workers",
    "DEFAULT_WORKERS",
    "set_default_workers",
    "get_default_workers",
]
