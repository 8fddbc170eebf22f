"""Low-level shortest-path kernels behind :mod:`repro.paths.engine`.

This package is the repo's "as fast as the hardware allows" layer: each
kernel implements the same bucket-relaxation contract on raw CSR arrays
(no :class:`~repro.graph.csr.CSRGraph` dependency, no tracker calls) so
backends can be swapped freely and benchmarked against each other.

Backends
--------
``numpy``
    Frontier-vectorized bucket relaxation (delta-stepping with Dial
    buckets for integer weights); always available, the default.
``numba``
    The same algorithm JIT-compiled with numba.  Optional: when numba
    is not importable the registry silently maps it to ``numpy`` so
    callers can request it unconditionally.

The pure-Python heapq Dijkstra the kernels are checked against is a
test oracle (``tests/oracles/dijkstra.py``), not a backend.
"""

from __future__ import annotations

import warnings
from typing import List

from repro.errors import ParameterError
from repro.kernels.numpy_kernel import (
    bucket_sssp,
    bucket_sssp_batch,
    expand_frontier,
    split_light_heavy,
)
from repro.kernels.numba_kernel import (
    HAVE_NUMBA,
    bucket_sssp_batch_numba,
    bucket_sssp_numba,
)

BACKENDS = ("numpy", "numba")

_warned_numba = False


def available_backends() -> List[str]:
    """Backends that will actually run (numba only when importable)."""
    return ["numpy", "numba"] if HAVE_NUMBA else ["numpy"]


def require_backend(name: str) -> str:
    """Like :func:`resolve_backend` but *strict*: when the caller asked
    for a backend by name (e.g. CLI ``--backend numba``) and it cannot
    actually run, raise instead of silently degrading."""
    if name not in BACKENDS:
        raise ParameterError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        )
    if name not in available_backends():
        raise ParameterError(
            f"backend {name!r} was requested explicitly but is not available "
            f"on this machine (numba not importable); available backends: "
            f"{available_backends()}"
        )
    return name


def resolve_backend(name: str) -> str:
    """Validate ``name`` and degrade ``numba`` -> ``numpy`` when the JIT
    toolchain is absent (warning once per process)."""
    global _warned_numba
    if name not in BACKENDS:
        raise ParameterError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        )
    if name == "numba" and not HAVE_NUMBA:
        if not _warned_numba:
            warnings.warn(
                "numba is not installed; falling back to the numpy backend",
                RuntimeWarning,
                stacklevel=2,
            )
            _warned_numba = True
        return "numpy"
    return name


__all__ = [
    "BACKENDS",
    "HAVE_NUMBA",
    "available_backends",
    "require_backend",
    "resolve_backend",
    "bucket_sssp",
    "bucket_sssp_batch",
    "bucket_sssp_batch_numba",
    "bucket_sssp_numba",
    "expand_frontier",
    "split_light_heavy",
]
