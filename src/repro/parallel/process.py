"""Fork-based shard workers with shared-memory label scratch.

The thread-sharded relaxation rounds in the bucket kernels win real
multicore throughput only inside the GIL-released numpy gathers; the
claim-resolution scatter-min and the boolean reduction passes hold the
GIL and serialize.  This module provides the process-based alternative
named by ROADMAP open item 1: shard workers are **forked** from the
middle of the kernel call, so they inherit the whole call state —
CSR adjacency, light/heavy splits, the gather closure itself — by
copy-on-write, with zero pickling of graph data.

Mutable state crosses the fork through *shared* anonymous mmaps
(:func:`shared_empty`): an ``mmap.mmap(-1, size)`` mapping is
``MAP_SHARED | MAP_ANONYMOUS``, so parent writes after the fork are
visible to every child.  The kernel allocates its ``dist``/``rank``
label arrays and a frontier scratch buffer there; per round the
coordinator copies the frontier into scratch, sends each worker a
*bounds* tuple (a few ints — never the arrays), and the workers
claim-reduce their shard against the live label snapshot.  Reduced
shard winners (small: at most one entry per claimed state) return
through the pipe; the coordinator merges them with the same
min-``(cand, rank, src)`` pass as thread mode, so labels and ledgers
stay bit-identical for any worker count and either shard mode.

Fork is a POSIX-only start method; :func:`fork_available` gates every
use and callers silently fall back to thread sharding elsewhere.
"""

from __future__ import annotations

import mmap
import multiprocessing
from typing import Any, Callable, List, Sequence, Tuple, Union

import numpy as np

__all__ = ["fork_available", "shared_empty", "ForkShardPool"]


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform
    (POSIX yes, Windows no)."""
    return "fork" in multiprocessing.get_all_start_methods()


def shared_empty(shape: Union[int, Tuple[int, ...]], dtype: Any) -> np.ndarray:
    """Uninitialized array backed by an anonymous ``MAP_SHARED`` mmap.

    Writes made by whichever process holds the array are visible to
    every process forked *after this call* — the mapping itself is
    shared, not copy-on-write like ordinary heap pages.  The mapping
    is released when the array (which keeps the mmap alive through its
    buffer reference) is garbage collected; there is no name, no file,
    and nothing for a resource tracker to leak.
    """
    dtype = np.dtype(dtype)
    size = max(1, int(np.prod(shape))) * dtype.itemsize
    buf = mmap.mmap(-1, size)
    return np.frombuffer(buf, dtype=dtype, count=int(np.prod(shape))).reshape(shape)


class _RemoteError:
    """Exception surrogate sent over the pipe (tracebacks don't pickle)."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.detail = str(exc)


def _worker_loop(conn: Any, fn: Callable[..., Any]) -> None:
    """Child main: apply the fork-inherited ``fn`` to each task tuple
    until the coordinator sends ``None``."""
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            try:
                conn.send(fn(*task))
            except BaseException as exc:  # noqa: BLE001 - relayed to parent
                conn.send(_RemoteError(exc))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown races
        return
    finally:
        conn.close()


class ForkShardPool:
    """A fixed team of forked shard workers running one inherited function.

    Unlike :class:`concurrent.futures.ProcessPoolExecutor`, the worker
    function is captured at **fork time**, so it may be any closure —
    the bucket kernels pass their in-call ``_gather_shard`` closure
    directly, and the CSR arrays it closes over are inherited
    copy-on-write instead of pickled per task.  Consequence: state the
    function reads that must reflect *post-fork* coordinator writes
    has to live in :func:`shared_empty` arrays; everything else is a
    frozen fork-time snapshot.
    """

    def __init__(self, workers: int, fn: Callable[..., Any]):
        if not fork_available():  # pragma: no cover - POSIX-only test rig
            raise RuntimeError("fork start method unavailable on this platform")
        ctx = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        for _ in range(max(1, int(workers))):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_loop, args=(child_conn, fn), daemon=True
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    @property
    def workers(self) -> int:
        return len(self._procs)

    def map(self, tasks: Sequence[tuple]) -> List[Any]:
        """Run one task tuple per worker (round-synchronous): send all,
        then collect all, preserving task order.  Raises in the
        coordinator if any worker raised."""
        if len(tasks) > len(self._conns):
            raise ValueError(
                f"{len(tasks)} tasks for {len(self._conns)} shard workers"
            )
        live = list(zip(self._conns, tasks))
        for conn, task in live:
            conn.send(task)
        out = [conn.recv() for conn, _ in live]
        for res in out:
            if isinstance(res, _RemoteError):
                raise RuntimeError(
                    f"shard worker failed: {res.kind}: {res.detail}"
                )
        return out

    def shutdown(self) -> None:
        """Stop and reap every worker; idempotent."""
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
        self._conns = []
        self._procs = []

    def __enter__(self) -> "ForkShardPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
