"""Graph persistence: edge lists (text + binary) and .npz archives.

Three tiers, by scale:

* **Text edge lists** — ``u v [w]`` lines, human-editable.
  :func:`save_edgelist` formats in vectorized chunks (no per-edge
  Python formatting); :func:`load_edgelist` is the in-RAM reference
  loader and :func:`stream_edgelist` yields bounded-size ``(u, v, w)``
  chunks for out-of-core ingestion
  (:func:`repro.graph.storage.ingest_edge_chunks`).
* **Binary edge lists** — fixed 24-byte ``(u:i8, v:i8, w:f8)`` records
  after a small header; the fast path for bulk transfer.
  :func:`save_edgelist_binary` / :func:`load_edgelist_binary` /
  :func:`stream_edgelist_binary`.
* **.npz archives** — :func:`save_npz` writes format **2**: the
  assembled CSR layout, which :func:`load_npz` reconstructs with zero
  re-sorting via :func:`repro.graph.csr.csr_from_arrays`.
  :func:`load_npz` still reads legacy format-1 edge-list archives
  (they carry no ``format`` field and round-trip through
  :func:`repro.graph.builders.from_edges`, re-sorting on load).

All malformed input is reported as
:class:`repro.errors.GraphFormatError` — including bad tokens,
truncated binary files, and short lines.
"""

from __future__ import annotations

import io as _io
import os
import re
from dataclasses import dataclass
from typing import BinaryIO, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph, csr_from_arrays

PathLike = Union[str, "os.PathLike[str]"]

NPZ_FORMAT_CSR = 2

#: binary edge-list header: magic, u32 version, i64 n, i64 m
_BIN_MAGIC = b"RPED"
_BIN_VERSION = 1
_BIN_RECORD = np.dtype([("u", "<i8"), ("v", "<i8"), ("w", "<f8")])

#: edges per formatting / parsing chunk for the text paths
_TEXT_CHUNK = 1 << 18


# ----------------------------------------------------------------------
# .npz archives
# ----------------------------------------------------------------------
def save_npz(g: CSRGraph, path: PathLike) -> None:
    """Save as a compressed format-2 .npz archive.

    Every assembled array is stored, so :func:`load_npz` never re-sorts.
    """
    np.savez_compressed(
        path,
        format=np.int64(NPZ_FORMAT_CSR),
        n=np.int64(g.n),
        indptr=g.indptr,
        indices=g.indices,
        weights=g.weights,
        edge_ids=g.edge_ids,
        edge_u=g.edge_u,
        edge_v=g.edge_v,
        edge_w=g.edge_w,
    )


def load_npz(path: PathLike) -> CSRGraph:
    """Load an archive written by :func:`save_npz`, or a legacy
    format-1 edge-list archive (``n``, ``edge_u``, ``edge_v``,
    ``edge_w``)."""
    with np.load(path) as data:
        n = int(data["n"])
        if "format" in data.files:
            version = int(data["format"])
            if version != NPZ_FORMAT_CSR:
                raise GraphFormatError(
                    f"unsupported npz graph format {version} in {path}"
                )
            try:
                return csr_from_arrays(
                    n,
                    indptr=data["indptr"],
                    indices=data["indices"],
                    weights=data["weights"],
                    edge_ids=data["edge_ids"],
                    edge_u=data["edge_u"],
                    edge_v=data["edge_v"],
                    edge_w=data["edge_w"],
                )
            except KeyError as exc:
                raise GraphFormatError(
                    f"npz archive {path} is missing member {exc}"
                ) from exc
        # legacy format 1: edge list only, rebuilt (and re-sorted) in RAM
        edges = np.stack([data["edge_u"], data["edge_v"]], axis=1)
        return from_edges(n, edges, data["edge_w"])


# ----------------------------------------------------------------------
# text edge lists
# ----------------------------------------------------------------------
def save_edgelist(
    g: CSRGraph, path: PathLike, header: bool = True, chunk_edges: int = _TEXT_CHUNK
) -> None:
    """Write ``u v w`` lines; a ``# n m`` header keeps isolated vertices.

    Formatting is vectorized per chunk (numpy int/float -> str
    conversions + one ``join``), not a per-edge Python format loop —
    integral weights print as integers, others via shortest round-trip
    repr, matching the historical output byte for byte.
    """
    with open(path, "w", encoding="utf-8") as f:
        if header:
            f.write(f"# {g.n} {g.m}\n")
        for lo in range(0, g.m, chunk_edges):
            hi = min(lo + chunk_edges, g.m)
            u = g.edge_u[lo:hi].astype("U20")
            v = g.edge_v[lo:hi].astype("U20")
            w = np.asarray(g.edge_w[lo:hi])
            ws = w.astype("U32")  # numpy shortest repr == repr(float)
            integral = w == np.floor(w)
            if integral.any():
                ws[integral] = w[integral].astype(np.int64).astype("U20")
            sep = np.full(u.shape[0], " ", dtype="U1")
            lines = np.char.add(np.char.add(np.char.add(np.char.add(u, sep), v), sep), ws)
            f.write("\n".join(lines.tolist()))
            f.write("\n")


def _parse_text_block(
    lines: List[str], first_lineno: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse stripped, comment-free lines into ``(u, v, w)`` arrays.

    Fast path: one C-speed ``np.loadtxt`` call over the whole block
    (uniform column count).  Mixed 2/3-column blocks and all error
    reporting fall back to the per-line reference parser so bad tokens
    raise :class:`GraphFormatError` with a line number.
    """
    try:
        arr = np.loadtxt(_io.StringIO("\n".join(lines)), dtype=np.float64, ndmin=2)
    except ValueError:
        return _parse_text_block_slow(lines, first_lineno)
    if arr.shape[0] != len(lines):  # pragma: no cover - loadtxt quirk guard
        return _parse_text_block_slow(lines, first_lineno)
    if arr.shape[1] == 2:
        w = np.ones(arr.shape[0], dtype=np.float64)
    elif arr.shape[1] == 3:
        w = arr[:, 2].copy()
    else:
        raise GraphFormatError(
            f"line {first_lineno}: expected 'u v [w]', got {arr.shape[1]} columns"
        )
    u, v = arr[:, 0], arr[:, 1]
    if (u != np.floor(u)).any() or (v != np.floor(v)).any():
        return _parse_text_block_slow(lines, first_lineno)
    return u.astype(np.int64), v.astype(np.int64), w


def _parse_text_block_slow(
    lines: List[str], first_lineno: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    us = np.empty(len(lines), dtype=np.int64)
    vs = np.empty(len(lines), dtype=np.int64)
    ws = np.ones(len(lines), dtype=np.float64)
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(
                f"line {first_lineno + i}: bad edge list line: {line!r}"
            )
        try:
            us[i] = int(parts[0])
            vs[i] = int(parts[1])
            if len(parts) > 2:
                ws[i] = float(parts[2])
        except ValueError as exc:
            raise GraphFormatError(
                f"line {first_lineno + i}: bad token in edge list line: {line!r}"
            ) from exc
    return us, vs, ws


def read_edgelist_header(path: PathLike) -> Optional[int]:
    """The ``n`` of the first ``# n [m]`` comment line, if present."""
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if not line.startswith("#"):
                return None
            parts = line[1:].split()
            if parts:
                try:
                    return int(parts[0])
                except ValueError:
                    continue  # prose comment; keep looking before the data
    return None


def stream_edgelist(
    path: PathLike, chunk_edges: int = _TEXT_CHUNK
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(u, v, w)`` array chunks from a text edge list.

    Comments and blank lines are skipped; at most ``chunk_edges`` edges
    are in flight at once, so arbitrarily large files parse in bounded
    memory.  Feed the chunks (with
    :func:`read_edgelist_header` for ``n``) to
    :func:`repro.graph.storage.ingest_edge_chunks`.
    """
    buf: list = []
    first_lineno = 1
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not buf:
                first_lineno = lineno
            buf.append(line)
            if len(buf) >= chunk_edges:
                yield _parse_text_block(buf, first_lineno)
                buf = []
    if buf:
        yield _parse_text_block(buf, first_lineno)


def load_edgelist(path: PathLike) -> CSRGraph:
    """Parse an edge list written by :func:`save_edgelist` (or compatible).

    The in-RAM reference loader: all chunks are concatenated and handed
    to :func:`from_edges`.  For graphs that do not fit, ingest the same
    file through :func:`stream_edgelist` +
    :func:`repro.graph.storage.ingest_edge_chunks` instead — both paths
    produce identical graphs.
    """
    n_header = read_edgelist_header(path)
    us, vs, ws = [], [], []
    for cu, cv, cw in stream_edgelist(path):
        us.append(cu)
        vs.append(cv)
        ws.append(cw)
    if not us:
        return from_edges(n_header or 0, np.empty((0, 2), np.int64))
    u = np.concatenate(us)
    v = np.concatenate(vs)
    w = np.concatenate(ws)
    n = n_header if n_header is not None else int(max(u.max(), v.max())) + 1
    return from_edges(n, np.stack([u, v], axis=1), w)


# ----------------------------------------------------------------------
# SNAP-format snapshots
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SnapStats:
    """What :func:`load_snap` saw while cleaning a real-world snapshot.

    Attributes
    ----------
    raw_edges:
        Edge lines parsed, before any cleaning.
    self_loops:
        ``u == u`` lines dropped.
    merged_duplicates:
        Lines collapsed by duplicate / reverse-orientation merging
        (``raw_edges - self_loops - m`` of the final graph).
    header_nodes, header_edges:
        The ``# Nodes: N Edges: M`` header values, when present.
    vertex_ids:
        ``int64[n]`` — original SNAP vertex id of each compact id
        (SNAP files number vertices arbitrarily; the graph is always
        relabeled to ``[0, n)`` in ascending original-id order).
    """

    raw_edges: int
    self_loops: int
    merged_duplicates: int
    header_nodes: Optional[int]
    header_edges: Optional[int]
    vertex_ids: np.ndarray


def read_snap_header(path: PathLike) -> Tuple[Optional[int], Optional[int]]:
    """The ``(nodes, edges)`` promised by a ``# Nodes: N Edges: M`` line.

    SNAP snapshots carry free-form ``#`` comments; the conventional
    census line is recognized anywhere in the leading comment block.
    Returns ``(None, None)`` when no census line precedes the data.
    """
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if not line.startswith("#"):
                return None, None
            nm = re.search(r"nodes\s*:?\s*(\d+)", line, re.IGNORECASE)
            em = re.search(r"edges\s*:?\s*(\d+)", line, re.IGNORECASE)
            if nm or em:
                return (
                    int(nm.group(1)) if nm else None,
                    int(em.group(1)) if em else None,
                )
    return None, None


def load_snap(path: PathLike) -> Tuple[CSRGraph, SnapStats]:
    """Read a SNAP-format snapshot into a cleaned :class:`CSRGraph`.

    Real-world SNAP dumps are messy in four standard ways, all handled
    here: arbitrary (non-contiguous, often 1-based) vertex ids are
    compacted to ``[0, n)``; self loops are dropped; duplicate and
    reverse-orientation rows (directed dumps list both ``u v`` and
    ``v u``) are merged, keeping the minimum weight; and a ``# Nodes: N
    Edges: M`` census line, when present, is checked against what the
    file actually contains — a file truncated below its own census
    raises :class:`GraphFormatError` naming the last line read.

    Returns ``(graph, stats)``; ``stats.vertex_ids`` maps compact ids
    back to the original numbering.
    """
    header_nodes, header_edges = read_snap_header(path)
    us, vs, ws = [], [], []
    last_lineno = 0
    with open(path, "r", encoding="utf-8") as f:
        buf: list = []
        first_lineno = 1
        for lineno, line in enumerate(f, start=1):
            last_lineno = lineno
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not buf:
                first_lineno = lineno
            buf.append(line)
            if len(buf) >= _TEXT_CHUNK:
                cu, cv, cw = _parse_text_block(buf, first_lineno)
                us.append(cu)
                vs.append(cv)
                ws.append(cw)
                buf = []
        if buf:
            cu, cv, cw = _parse_text_block(buf, first_lineno)
            us.append(cu)
            vs.append(cv)
            ws.append(cw)

    u = np.concatenate(us) if us else np.empty(0, np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, np.int64)
    w = np.concatenate(ws) if ws else np.empty(0, np.float64)
    raw_edges = int(u.shape[0])
    if header_edges is not None and raw_edges < header_edges:
        raise GraphFormatError(
            f"truncated SNAP file {path}: header promises {header_edges} "
            f"edges, found {raw_edges} by line {last_lineno}"
        )
    if u.size and (u.min() < 0 or v.min() < 0):
        raise GraphFormatError(f"negative vertex id in SNAP file {path}")

    # compact arbitrary ids to [0, n), ascending by original id
    ids = np.unique(np.concatenate([u, v])) if u.size else np.empty(0, np.int64)
    cu = np.searchsorted(ids, u)
    cv = np.searchsorted(ids, v)
    self_loops = int((cu == cv).sum())
    g = from_edges(int(ids.shape[0]), np.stack([cu, cv], axis=1), w)
    stats = SnapStats(
        raw_edges=raw_edges,
        self_loops=self_loops,
        merged_duplicates=raw_edges - self_loops - g.m,
        header_nodes=header_nodes,
        header_edges=header_edges,
        vertex_ids=ids,
    )
    return g, stats


# ----------------------------------------------------------------------
# binary edge lists
# ----------------------------------------------------------------------
def write_binary_header(f: BinaryIO, n: int, m: int) -> None:
    """Write the binary edge-list header to an open binary file."""
    f.write(_BIN_MAGIC)
    f.write(np.uint32(_BIN_VERSION).tobytes())
    f.write(np.int64(n).tobytes())
    f.write(np.int64(m).tobytes())


def write_binary_edges(f: BinaryIO, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
    """Append a chunk of ``(u, v, w)`` records after the header."""
    rec = np.empty(np.asarray(u).shape[0], dtype=_BIN_RECORD)
    rec["u"], rec["v"], rec["w"] = u, v, w
    rec.tofile(f)


def save_edgelist_binary(
    g: CSRGraph, path: PathLike, chunk_edges: int = 1 << 22
) -> None:
    """Write the packed binary edge list (header + 24-byte records)."""
    with open(path, "wb") as f:
        write_binary_header(f, g.n, g.m)
        for lo in range(0, g.m, chunk_edges):
            hi = min(lo + chunk_edges, g.m)
            write_binary_edges(
                f, g.edge_u[lo:hi], g.edge_v[lo:hi], g.edge_w[lo:hi]
            )


def read_binary_header(path: PathLike) -> Tuple[int, int]:
    """The ``(n, m)`` of a binary edge list, validating magic/version."""
    with open(path, "rb") as f:
        head = f.read(len(_BIN_MAGIC) + 4 + 16)
    if len(head) < len(_BIN_MAGIC) + 4 + 16:
        raise GraphFormatError(f"truncated binary edge list header: {path}")
    if head[: len(_BIN_MAGIC)] != _BIN_MAGIC:
        raise GraphFormatError(f"not a binary edge list (bad magic): {path}")
    version = int(np.frombuffer(head, np.uint32, 1, len(_BIN_MAGIC))[0])
    if version != _BIN_VERSION:
        raise GraphFormatError(f"unsupported binary edge list version {version}")
    n, m = np.frombuffer(head, np.int64, 2, len(_BIN_MAGIC) + 4)
    return int(n), int(m)


def stream_edgelist_binary(
    path: PathLike, chunk_edges: int = 1 << 22
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(u, v, w)`` chunks from a binary edge list.

    A file shorter than its header's record count — or with a ragged
    trailing record — raises :class:`GraphFormatError`.
    """
    n, m = read_binary_header(path)
    seen = 0
    with open(path, "rb") as f:
        f.seek(len(_BIN_MAGIC) + 4 + 16)
        while True:
            rec = np.fromfile(f, dtype=_BIN_RECORD, count=chunk_edges)
            if rec.shape[0] == 0:
                break
            seen += int(rec.shape[0])
            yield (
                rec["u"].astype(np.int64, copy=False),
                rec["v"].astype(np.int64, copy=False),
                rec["w"].astype(np.float64, copy=False),
            )
        tail = f.read(_BIN_RECORD.itemsize)
    if seen != m or tail:
        raise GraphFormatError(
            f"truncated binary edge list: header promises {m} records, "
            f"found {seen}{' plus a ragged tail' if tail else ''}: {path}"
        )


def load_edgelist_binary(path: PathLike) -> CSRGraph:
    """In-RAM loader for the binary edge list format."""
    n, _ = read_binary_header(path)
    us, vs, ws = [], [], []
    for cu, cv, cw in stream_edgelist_binary(path):
        us.append(cu)
        vs.append(cv)
        ws.append(cw)
    if not us:
        return from_edges(n, np.empty((0, 2), np.int64))
    u = np.concatenate(us)
    v = np.concatenate(vs)
    return from_edges(n, np.stack([u, v], axis=1), np.concatenate(ws))
