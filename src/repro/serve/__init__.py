"""Distance-query serving tier: build a hopset once, serve traffic.

:class:`DistanceServer` holds an LRU cache of hot source distance rows
and a coalescing front door that turns k concurrent s-t queries into
one multi-source search: the bucket engine on ``G`` for exact answers
(``h=None``), or the frontier kernel on the compiled ``G ∪ E'`` union
CSR under a hop budget.  See :mod:`repro.serve.server` and the CLI
``serve`` subcommand.
"""

from repro.serve.server import (
    DistanceServer,
    ServerStats,
    load_hopset,
    save_hopset,
)

__all__ = [
    "DistanceServer",
    "ServerStats",
    "load_hopset",
    "save_hopset",
]
