"""Out-of-core CSR graph storage: memmap-backed stores + streaming builds.

A *store* is a directory of plain ``.npy`` files (one per
:class:`~repro.graph.csr.CSRGraph` array) plus a ``meta.json`` manifest.
Unlike an ``.npz`` archive — a zip, whose members cannot be mapped —
every array in a store can be opened with ``np.load(mmap_mode=...)``,
so :func:`load_store` yields a fully functional ``CSRGraph`` whose
``indptr``/``indices``/``weights``/edge arrays are lazy ``np.memmap``
views: the kernels' gathers fault pages in on demand and a graph far
larger than RAM stays usable.  Integer arrays are stored in compact
dtypes (``int32`` whenever the value range allows), roughly halving
both the disk footprint and the resident working set.

:func:`ingest_edge_chunks` is the matching *builder*: it consumes an
iterator of ``(u, v, w)`` edge chunks (see the streaming readers in
:mod:`repro.graph.io`) and assembles the store with a chunked two-pass
counting sort, never materializing the full edge list in Python:

1. **count** — canonicalize each chunk (drop self loops, orient
   ``u < v``, validate), append it to a binary scratch file, and
   accumulate per-vertex counts;
2. **scatter** — counting-sort the scratch into per-vertex buckets on
   disk (prefix-sum offsets + a running per-vertex cursor);
3. **dedup** — per contiguous vertex block,
   :func:`~repro.graph.dedup.first_of_runs` over ``(u, v)`` runs,
   merging parallel edges by minimum weight.  Runs of a ``(u, v)``
   pair never cross block boundaries (blocks partition by ``u``), so
   the block-local dedup is value-identical to the global one
   :func:`repro.graph.builders.from_edges` performs in RAM;
4. **assemble** — two scatter sub-passes (u-side arcs, then v-side
   arcs) sharing one per-row cursor, replicating ``build_csr``'s
   stable sort-by-source arc order **bit for bit**.

Peak RAM is a handful of ``n``-sized arrays plus one chunk buffer —
O(n + chunk), independent of ``m``.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
import shutil
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

import numpy as np
from numpy.lib.format import open_memmap

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph, csr_from_arrays
from repro.graph.dedup import first_of_runs

PathLike = Union[str, "os.PathLike[str]"]

STORE_META = "meta.json"
STORE_FORMAT = 1
#: the CSRGraph fields persisted as individual .npy members
STORE_ARRAYS = (
    "indptr",
    "indices",
    "weights",
    "edge_ids",
    "edge_u",
    "edge_v",
    "edge_w",
)

#: edges per streaming chunk — 4M edges keeps every intermediate
#: buffer of the ingest passes under ~200 MB
DEFAULT_CHUNK_EDGES = 1 << 22


def _id_dtype(count: int) -> np.dtype:
    """Smallest standard integer dtype indexing ``count`` values."""
    return np.dtype(np.int32 if count <= np.iinfo(np.int32).max else np.int64)


def _drop_pages(arr: Optional[np.ndarray], sync: bool = True) -> None:
    """Advise the kernel a memmap's resident pages are disposable —
    between ingest passes this returns gigabytes of scratch working set
    without losing file contents.  With ``sync=False`` the ``msync`` is
    skipped: the mappings are shared and file-backed, so dirty pages
    survive in the page cache (outside this process's RSS) and the
    kernel writes them back lazily — cheap enough to call per chunk."""
    mm = getattr(arr, "_mmap", None)
    advice = getattr(_mmap, "MADV_DONTNEED", None)
    if mm is None or advice is None:
        return
    try:
        if sync:
            arr.flush()
        mm.madvise(advice)
    except (AttributeError, OSError, ValueError):  # pragma: no cover
        pass


def _write_array(path: PathLike, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        np.lib.format.write_array(f, np.ascontiguousarray(arr))


def save_store(g: CSRGraph, path: PathLike, compact: bool = True) -> None:
    """Persist ``g`` as a memmap-able store directory at ``path``.

    With ``compact`` (default) integer arrays are downcast to ``int32``
    whenever ``n``/``m`` allow — the load side is dtype-agnostic.
    Writing is atomic at the directory level: arrays land in a
    temporary sibling first, which then replaces ``path``.
    """
    path = os.fspath(path)
    tmp = path + ".tmp-save"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    id_dt = _id_dtype(max(g.n, 1)) if compact else np.dtype(np.int64)
    eid_dt = _id_dtype(max(g.m, 1)) if compact else np.dtype(np.int64)
    casts = {
        "indices": id_dt,
        "edge_u": id_dt,
        "edge_v": id_dt,
        "edge_ids": eid_dt,
    }
    meta = {"format": STORE_FORMAT, "n": g.n, "m": g.m, "num_arcs": g.num_arcs}
    for name in STORE_ARRAYS:
        arr = getattr(g, name)
        arr = arr.astype(casts.get(name, arr.dtype), copy=False)
        _write_array(os.path.join(tmp, name + ".npy"), arr)
        meta[name] = {"dtype": arr.dtype.str, "shape": list(arr.shape)}
    with open(os.path.join(tmp, STORE_META), "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=1)
    if os.path.exists(path):
        shutil.rmtree(path)
    os.replace(tmp, path)


def load_store(path: PathLike, mmap_mode: Optional[str] = "r") -> CSRGraph:
    """Open a store directory as a :class:`CSRGraph`.

    ``mmap_mode="r"`` (default) memory-maps every array — construction
    is O(1) in graph size and pages fault in lazily as algorithms touch
    them.  ``mmap_mode=None`` reads everything into RAM (the arrays
    still skip the :func:`build_csr` re-sort: the store *is* the CSR
    layout).
    """
    path = os.fspath(path)
    meta_path = os.path.join(path, STORE_META)
    if not os.path.isfile(meta_path):
        raise GraphFormatError(f"not a graph store (missing {STORE_META}): {path}")
    with open(meta_path, "r", encoding="utf-8") as f:
        meta = json.load(f)
    if meta.get("format") != STORE_FORMAT:
        raise GraphFormatError(
            f"unsupported store format {meta.get('format')!r} at {path}"
        )
    arrays = {}
    for name in STORE_ARRAYS:
        fpath = os.path.join(path, name + ".npy")
        if not os.path.isfile(fpath):
            raise GraphFormatError(f"store member missing: {fpath}")
        spec = meta.get(name, {})
        count = int(spec.get("shape", [1])[0]) if spec else -1
        # a zero-length mmap is not representable — tiny members load eagerly
        mode = None if count == 0 else mmap_mode
        arrays[name] = np.load(fpath, mmap_mode=mode)
        if spec and (
            arrays[name].dtype.str != spec["dtype"]
            or list(arrays[name].shape) != spec["shape"]
        ):
            raise GraphFormatError(
                f"store member {name} does not match its manifest entry"
            )
    try:
        return csr_from_arrays(int(meta["n"]), **arrays)
    except GraphFormatError as exc:
        raise GraphFormatError(f"corrupt store at {path}: {exc}") from exc


@dataclass(frozen=True)
class IngestStats:
    """What a streaming ingest saw and produced."""

    n: int
    m: int  # final deduplicated undirected edges
    raw_edges: int  # canonical edges scanned (post self-loop drop)
    self_loops: int
    merged_duplicates: int
    chunks: int


def ingest_edge_chunks(
    chunks: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    store_path: PathLike,
    n: Optional[int] = None,
    *,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    mmap_mode: Optional[str] = "r",
) -> Tuple[CSRGraph, IngestStats]:
    """Stream ``(u, v, w)`` edge chunks into a store at ``store_path``.

    Semantics match :func:`repro.graph.builders.from_edges` exactly —
    self loops dropped, ``u < v`` canonical orientation, parallel edges
    merged by minimum weight, identical edge order and CSR arc order —
    but the full edge list never exists in memory; see the module
    docstring for the pass structure.  ``n=None`` infers the vertex
    count from the largest endpoint seen.

    Returns ``(graph, stats)`` with the graph opened via
    :func:`load_store` at ``mmap_mode``.
    """
    store_path = os.fspath(store_path)
    os.makedirs(store_path, exist_ok=True)
    tmp = os.path.join(store_path, "tmp-ingest")
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    try:
        graph, stats = _ingest(chunks, store_path, tmp, n, chunk_edges, mmap_mode)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return graph, stats


def _ingest(
    chunks: Iterable[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]],
    store_path: str,
    tmp: str,
    n: Optional[int],
    chunk_edges: int,
    mmap_mode: bool,
) -> Tuple[CSRGraph, "IngestStats"]:
    # ---- pass 1: canonicalize + count --------------------------------
    deg = np.zeros(0 if n is None else n, dtype=np.int64)
    m_raw = 0
    self_loops = 0
    n_chunks = 0
    canon = os.path.join(tmp, "canon.bin")
    with open(canon, "wb") as scratch:
        for cu, cv, cw in chunks:
            n_chunks += 1
            cu = np.asarray(cu)
            cv = np.asarray(cv)
            if not (
                np.issubdtype(cu.dtype, np.integer)
                and np.issubdtype(cv.dtype, np.integer)
            ):
                raise GraphFormatError("edge endpoints must be integers")
            cu = cu.astype(np.int64, copy=False)
            cv = cv.astype(np.int64, copy=False)
            cw = np.asarray(cw, dtype=np.float64)
            if not (cu.shape == cv.shape == cw.shape):
                raise GraphFormatError("edge chunk arrays must have equal length")
            if cu.shape[0] == 0:
                continue
            lo = min(cu.min(), cv.min())
            if lo < 0:
                raise GraphFormatError(f"vertex id out of range: saw {lo}")
            hi = int(max(cu.max(), cv.max()))
            if n is not None and hi >= n:
                raise GraphFormatError(
                    f"vertex id out of range [0, {n}): saw {hi}"
                )
            if not np.isfinite(cw).all() or (cw <= 0).any():
                raise GraphFormatError("edge weights must be strictly positive")
            keep = cu != cv
            self_loops += int(cu.shape[0] - keep.sum())
            cu, cv, cw = cu[keep], cv[keep], cw[keep]
            if cu.shape[0] == 0:
                if n is None and hi >= deg.shape[0]:
                    deg = np.concatenate(
                        [deg, np.zeros(hi + 1 - deg.shape[0], np.int64)]
                    )
                continue
            swap = cu > cv
            u2 = np.where(swap, cv, cu)
            v2 = np.where(swap, cu, cv)
            if n is None and hi >= deg.shape[0]:
                deg = np.concatenate(
                    [deg, np.zeros(hi + 1 - deg.shape[0], np.int64)]
                )
            deg += np.bincount(u2, minlength=deg.shape[0])
            rec = np.empty(
                u2.shape[0], dtype=[("u", "<i8"), ("v", "<i8"), ("w", "<f8")]
            )
            rec["u"], rec["v"], rec["w"] = u2, v2, cw
            rec.tofile(scratch)
            m_raw += int(u2.shape[0])
    if n is None:
        n = int(deg.shape[0])

    # ---- pass 2: counting-scatter into per-vertex buckets ------------
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=off[1:])
    id_dt = _id_dtype(max(n, 1))
    if m_raw:
        bu = open_memmap(
            os.path.join(tmp, "bu.npy"), mode="w+", dtype=id_dt, shape=(m_raw,)
        )
        bv = open_memmap(
            os.path.join(tmp, "bv.npy"), mode="w+", dtype=id_dt, shape=(m_raw,)
        )
        bw = open_memmap(
            os.path.join(tmp, "bw.npy"), mode="w+", dtype=np.float64, shape=(m_raw,)
        )
        cursor = off[:-1].copy()
        rec_dt = np.dtype([("u", "<i8"), ("v", "<i8"), ("w", "<f8")])
        with open(canon, "rb") as scratch:
            while True:
                rec = np.fromfile(scratch, dtype=rec_dt, count=chunk_edges)
                if rec.shape[0] == 0:
                    break
                order = np.argsort(rec["u"], kind="stable")
                us = rec["u"][order]
                uniq, start, counts = np.unique(
                    us, return_index=True, return_counts=True
                )
                within = np.arange(us.shape[0], dtype=np.int64) - np.repeat(
                    start, counts
                )
                pos = cursor[us] + within
                bu[pos] = us
                bv[pos] = rec["v"][order]
                bw[pos] = rec["w"][order]
                cursor[uniq] += counts
                for arr in (bu, bv, bw):
                    _drop_pages(arr, sync=False)
        del cursor
    else:
        bu = bv = bw = np.empty(0, id_dt)
        bw = np.empty(0, np.float64)
    os.remove(canon)

    # ---- pass 3: per-vertex-block min-weight dedup -------------------
    if m_raw:
        du = open_memmap(
            os.path.join(tmp, "du.npy"), mode="w+", dtype=id_dt, shape=(m_raw,)
        )
        dv = open_memmap(
            os.path.join(tmp, "dv.npy"), mode="w+", dtype=id_dt, shape=(m_raw,)
        )
        dw = open_memmap(
            os.path.join(tmp, "dw.npy"), mode="w+", dtype=np.float64, shape=(m_raw,)
        )
    else:
        du, dv, dw = bu, bv, bw
    deg_u = np.zeros(n, dtype=np.int64)
    deg_v = np.zeros(n, dtype=np.int64)
    m = 0
    va = 0
    while va < n and m_raw:
        vb = int(
            np.searchsorted(off, off[va] + max(chunk_edges, 1), side="left")
        )
        vb = min(max(vb, va + 1), n)
        blk = slice(int(off[va]), int(off[vb]))
        u = np.asarray(bu[blk])
        v = np.asarray(bv[blk])
        w = np.asarray(bw[blk])
        if u.shape[0]:
            keep = first_of_runs((u, v), prefer=(w,))
            u, v, w = u[keep], v[keep], w[keep]
            du[m : m + u.shape[0]] = u
            dv[m : m + u.shape[0]] = v
            dw[m : m + u.shape[0]] = w
            deg_u[va:vb] = np.bincount(u - va, minlength=vb - va)
            deg_v += np.bincount(v, minlength=n)
            m += int(u.shape[0])
        for arr in (bu, bv, bw, du, dv, dw):
            _drop_pages(arr, sync=False)
        va = vb
    merged = m_raw - m
    for arr in (bu, bv, bw):
        _drop_pages(arr)
    del bu, bv, bw

    # ---- pass 4: assemble the final store ----------------------------
    eid_dt = _id_dtype(max(m, 1))
    num_arcs = 2 * m
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg_u + deg_v, out=indptr[1:])

    def _final(name: str, dtype: Union[str, np.dtype], count: int) -> np.ndarray:
        fpath = os.path.join(store_path, name + ".npy")
        if count == 0:
            _write_array(fpath, np.empty(0, dtype))
            return np.empty(0, dtype)
        return open_memmap(fpath, mode="w+", dtype=dtype, shape=(count,))

    indices = _final("indices", id_dt, num_arcs)
    weights = _final("weights", np.float64, num_arcs)
    edge_ids = _final("edge_ids", eid_dt, num_arcs)
    edge_u = _final("edge_u", id_dt, m)
    edge_v = _final("edge_v", id_dt, m)
    edge_w = _final("edge_w", np.float64, m)
    _write_array(os.path.join(store_path, "indptr.npy"), indptr)

    cursor = indptr[:-1].copy()
    # sub-pass u-side: deduped edges are sorted by (u, v), so row r's
    # u-side slots land in edge-id order — exactly build_csr's stable
    # sort-by-source order for the first half of each row
    for lo in range(0, m, chunk_edges):
        hi = min(lo + chunk_edges, m)
        u = np.asarray(du[lo:hi])
        v = np.asarray(dv[lo:hi])
        w = np.asarray(dw[lo:hi])
        edge_u[lo:hi] = u
        edge_v[lo:hi] = v
        edge_w[lo:hi] = w
        uniq, start, counts = np.unique(u, return_index=True, return_counts=True)
        within = np.arange(u.shape[0], dtype=np.int64) - np.repeat(start, counts)
        pos = cursor[u] + within
        indices[pos] = v
        weights[pos] = w
        edge_ids[pos] = np.arange(lo, hi, dtype=np.int64)
        cursor[uniq] += counts
        for arr in (du, dv, dw, edge_u, edge_v, edge_w,
                    indices, weights, edge_ids):
            _drop_pages(arr, sync=False)
    # sub-pass v-side: every row's v-side slots follow all its u-side
    # slots (the shared cursor moved past them), again in edge-id order
    for lo in range(0, m, chunk_edges):
        hi = min(lo + chunk_edges, m)
        u = np.asarray(du[lo:hi])
        v = np.asarray(dv[lo:hi])
        w = np.asarray(dw[lo:hi])
        eid = np.arange(lo, hi, dtype=np.int64)
        order = np.argsort(v, kind="stable")
        vs = v[order]
        uniq, start, counts = np.unique(vs, return_index=True, return_counts=True)
        within = np.arange(vs.shape[0], dtype=np.int64) - np.repeat(start, counts)
        pos = cursor[vs] + within
        indices[pos] = u[order]
        weights[pos] = w[order]
        edge_ids[pos] = eid[order]
        cursor[uniq] += counts
        for arr in (du, dv, dw, indices, weights, edge_ids):
            _drop_pages(arr, sync=False)
    del cursor
    if m_raw:
        for arr in (du, dv, dw):
            _drop_pages(arr)
        del du, dv, dw
    members = {
        "indptr": indptr,
        "indices": indices,
        "weights": weights,
        "edge_ids": edge_ids,
        "edge_u": edge_u,
        "edge_v": edge_v,
        "edge_w": edge_w,
    }
    meta = {"format": STORE_FORMAT, "n": n, "m": m, "num_arcs": num_arcs}
    for name, arr in members.items():
        meta[name] = {"dtype": arr.dtype.str, "shape": list(arr.shape)}
        _drop_pages(arr)
    del members, indices, weights, edge_ids, edge_u, edge_v, edge_w
    with open(os.path.join(store_path, STORE_META), "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=1)

    stats = IngestStats(
        n=n,
        m=m,
        raw_edges=m_raw,
        self_loops=self_loops,
        merged_duplicates=merged,
        chunks=n_chunks,
    )
    return load_store(store_path, mmap_mode=mmap_mode), stats


def ingest_edgelist(
    path: PathLike,
    store_path: PathLike,
    *,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    mmap_mode: Optional[str] = "r",
) -> Tuple[CSRGraph, IngestStats]:
    """Stream a text edge list straight into a store.

    Equivalent to ``load_edgelist`` + ``save_store`` but never holds
    more than one chunk of edges in RAM.  ``n`` comes from the
    ``# n m`` header when present, else from the max endpoint seen.
    """
    from repro.graph.io import read_edgelist_header, stream_edgelist

    return ingest_edge_chunks(
        stream_edgelist(path, chunk_edges=chunk_edges),
        store_path,
        n=read_edgelist_header(path),
        chunk_edges=chunk_edges,
        mmap_mode=mmap_mode,
    )


def ingest_edgelist_binary(
    path: PathLike,
    store_path: PathLike,
    *,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    mmap_mode: Optional[str] = "r",
) -> Tuple[CSRGraph, IngestStats]:
    """Stream a binary edge list (``save_edgelist_binary``) into a store."""
    from repro.graph.io import read_binary_header, stream_edgelist_binary

    n, _ = read_binary_header(path)
    return ingest_edge_chunks(
        stream_edgelist_binary(path, chunk_edges=chunk_edges),
        store_path,
        n=n,
        chunk_edges=chunk_edges,
        mmap_mode=mmap_mode,
    )
