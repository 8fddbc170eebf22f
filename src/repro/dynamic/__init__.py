"""Dynamic graphs: localized hopset repair under edge churn.

Edge updates arrive as :class:`UpdateBatch` (deduplicated
inserts/deletes; inserts *set* weights, which makes every applied batch
exactly invertible).  :func:`apply_batch` advances the CSR graph and
reports the repair views; :func:`repair_hopset` rebuilds only the
level-0 blocks that contain both endpoints of a changed edge
(bit-identical per-block rebuilds from recorded seeds — see
:class:`repro.hopsets.result.RepairStructure`).
:meth:`repro.serve.DistanceServer.apply_updates` composes the two for a
live server.  A spanner under churn is ``apply_batch`` followed by a
seeded rebuild on ``ApplyResult.graph``: EST spanner construction is
linear-time, so there is no separate repair path.  Correctness under
churn is pinned at the *guarantee* level (Definition 2.4 edge validity,
served-distance exactness) rather than edge identity —
``tests/test_dynamic.py`` and ``benchmarks/bench_dynamic.py`` check
both after every batch.
"""

from repro.dynamic.batch import ApplyResult, UpdateBatch, apply_batch
from repro.dynamic.hopset import repair_hopset

__all__ = [
    "ApplyResult",
    "UpdateBatch",
    "apply_batch",
    "repair_hopset",
]
