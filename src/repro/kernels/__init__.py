"""Low-level shortest-path kernels behind :mod:`repro.paths.engine`.

Each kernel works on raw CSR arrays (no
:class:`~repro.graph.csr.CSRGraph` dependency, no tracker calls) and
returns the per-bucket work and round counts the engine charges to the
PRAM ledger.  There is one implementation, the frontier-vectorized
bucket relaxation of :mod:`repro.kernels.numpy_kernel`: delta-stepping,
with Dial buckets for integer weights.

The pure-Python heapq Dijkstra the kernels are checked against is a
test oracle (``tests/oracles/dijkstra.py``); tests swap it in for these
functions with ``oracles.engine_kernel("reference")``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ParameterError
from repro.kernels.numpy_kernel import (
    bucket_sssp,
    bucket_sssp_batch,
    expand_frontier,
    split_light_heavy,
)

# The repository benchmark records this flag and passes backend="numpy"
# to four entry points; both go once the benchmark stops (ROADMAP item
# 10(d)).  No numba kernel exists.
HAVE_NUMBA = False


def check_backend(backend: Optional[str]) -> None:
    """Refuse any ``backend=`` but ``None`` or ``"numpy"``.

    Only the four entry points the repository benchmark calls with
    ``backend="numpy"`` still take the keyword (ROADMAP item 10(d)).
    """
    if backend not in (None, "numpy"):
        raise ParameterError(
            f"unknown backend {backend!r}; the numpy kernels are the only backend"
        )


__all__ = [
    "HAVE_NUMBA",
    "bucket_sssp",
    "bucket_sssp_batch",
    "check_backend",
    "expand_frontier",
    "split_light_heavy",
]
