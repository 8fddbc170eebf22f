"""Distance-query serving tier: build a hopset once, serve traffic.

:class:`DistanceServer` answers exact distances with the bucket engine
on ``G``, behind an LRU cache of hot source distance rows and a
coalescing front door that turns k concurrent s-t queries into one
multi-source search.  The hopset it holds is repaired under edge
updates; the paper's h-hop query over ``G ∪ E'`` is
:func:`repro.hopsets.query.hopset_distance`.  See
:mod:`repro.serve.server` and the CLI ``serve`` subcommand.
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
