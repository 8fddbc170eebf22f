"""Out-of-core storage tier: stores, streaming ingestion, format parity.

The invariant under test everywhere: the streaming/memmap paths must
produce graphs *array-for-array identical* to the in-RAM reference
(``from_edges`` / ``load_edgelist``), including CSR arc order — not
merely isomorphic.  That bit-identity is what lets the rest of the
suite (engines, builders, benches) treat a memmap-backed graph as a
drop-in replacement.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import from_edges, gnm_random_graph, with_random_weights
from repro.graph.io import (
    load_edgelist,
    load_edgelist_binary,
    load_npz,
    read_binary_header,
    read_edgelist_header,
    save_edgelist,
    save_edgelist_binary,
    save_npz,
    stream_edgelist,
    stream_edgelist_binary,
)
from repro.graph.storage import (
    ingest_edge_chunks,
    ingest_edgelist,
    ingest_edgelist_binary,
    load_store,
    save_store,
)


def assert_identical(a, b):
    """Array-for-array equality, CSR arc order included."""
    assert a.n == b.n
    for name in ("indptr", "indices", "weights", "edge_ids", "edge_u", "edge_v", "edge_w"):
        x = np.asarray(getattr(a, name))
        y = np.asarray(getattr(b, name))
        assert np.array_equal(x, y), name


@pytest.fixture
def medium_weighted():
    return with_random_weights(gnm_random_graph(120, 400, seed=3), seed=4)


# ----------------------------------------------------------------------
# store directories
# ----------------------------------------------------------------------
class TestStore:
    @pytest.mark.parametrize("mmap_mode", ["r", None])
    def test_roundtrip(self, medium_weighted, tmp_path, mmap_mode):
        save_store(medium_weighted, tmp_path / "s")
        back = load_store(tmp_path / "s", mmap_mode=mmap_mode)
        assert_identical(medium_weighted, back)

    def test_memmap_backed_arrays(self, medium_weighted, tmp_path):
        save_store(medium_weighted, tmp_path / "s")
        g = load_store(tmp_path / "s", mmap_mode="r")
        # the large arrays must be memmap views (lazy pages), read-only
        assert isinstance(g.indices.base, np.memmap) or isinstance(g.indices, np.memmap)
        assert not g.indices.flags.writeable

    def test_compact_dtypes(self, medium_weighted, tmp_path):
        save_store(medium_weighted, tmp_path / "s")
        g = load_store(tmp_path / "s")
        assert g.indices.dtype == np.int32  # n < 2^31
        assert g.indptr.dtype == np.int64  # prefix sums stay wide

    def test_full_width_mode(self, medium_weighted, tmp_path):
        save_store(medium_weighted, tmp_path / "s", compact=False)
        g = load_store(tmp_path / "s")
        assert g.indices.dtype == np.int64
        assert_identical(medium_weighted, g)

    def test_empty_graph(self, tmp_path):
        g = from_edges(7, np.empty((0, 2), np.int64))
        save_store(g, tmp_path / "s")
        assert_identical(g, load_store(tmp_path / "s"))

    def test_missing_meta_rejected(self, tmp_path):
        os.makedirs(tmp_path / "junk")
        with pytest.raises(GraphFormatError):
            load_store(tmp_path / "junk")

    def test_memmap_graph_drives_engine(self, medium_weighted, tmp_path):
        from repro.paths import shortest_path_forest, shortest_paths

        save_store(medium_weighted, tmp_path / "s")
        g = load_store(tmp_path / "s", mmap_mode="r")
        ref = shortest_paths(medium_weighted, 0)
        got = shortest_paths(g, 0)
        assert np.array_equal(ref.dist, got.dist)
        ref_forest = shortest_path_forest(medium_weighted, ref.dist, 0)
        got_forest = shortest_path_forest(g, got.dist, 0)
        assert np.array_equal(ref_forest[0], got_forest[0])
        assert np.array_equal(ref_forest[1], got_forest[1])

    def test_memmap_graph_drives_hopset_builder(self, tmp_path):
        from repro.hopsets import build_hopset

        g = with_random_weights(gnm_random_graph(80, 200, seed=9), seed=10)
        save_store(g, tmp_path / "s")
        gm = load_store(tmp_path / "s", mmap_mode="r")
        a = build_hopset(g, seed=5)
        b = build_hopset(gm, seed=5)
        assert np.array_equal(a.eu, b.eu)
        assert np.array_equal(a.ev, b.ev)
        assert np.array_equal(a.ew, b.ew)


# ----------------------------------------------------------------------
# streaming ingestion == in-RAM reference
# ----------------------------------------------------------------------
class TestIngest:
    def test_equals_from_edges_with_duplicates_and_loops(self, tmp_path):
        rng = np.random.default_rng(11)
        m = 2000
        u = rng.integers(0, 90, m)
        v = rng.integers(0, 90, m)
        w = rng.integers(1, 8, m).astype(float)
        ref = from_edges(100, np.stack([u, v], 1), w)  # 10 isolated vertices
        chunks = [(u[i : i + 77], v[i : i + 77], w[i : i + 77]) for i in range(0, m, 77)]
        got, stats = ingest_edge_chunks(iter(chunks), tmp_path / "s", n=100, chunk_edges=131)
        assert_identical(ref, got)
        assert stats.self_loops == int((u == v).sum())
        assert stats.raw_edges == m - stats.self_loops  # canonical edges scanned
        assert stats.merged_duplicates == stats.raw_edges - ref.m

    def test_infers_n_without_hint(self, tmp_path):
        u = np.array([0, 5, 2])
        v = np.array([5, 9, 0])
        w = np.ones(3)
        got, _ = ingest_edge_chunks(iter([(u, v, w)]), tmp_path / "s")
        assert got.n == 10

    def test_min_weight_kept_for_parallel_edges(self, tmp_path):
        u = np.array([0, 1, 0])
        v = np.array([1, 0, 1])
        w = np.array([3.0, 1.0, 2.0])
        got, _ = ingest_edge_chunks(iter([(u, v, w)]), tmp_path / "s", n=2)
        assert got.m == 1 and got.edge_w[0] == 1.0

    def test_rejects_bad_weights(self, tmp_path):
        u, v = np.array([0]), np.array([1])
        for w in ([0.0], [-1.0], [np.inf], [np.nan]):
            with pytest.raises(GraphFormatError):
                ingest_edge_chunks(iter([(u, v, np.array(w))]), tmp_path / "s", n=2)

    def test_rejects_out_of_range_endpoint(self, tmp_path):
        with pytest.raises(GraphFormatError):
            ingest_edge_chunks(
                iter([(np.array([0]), np.array([5]), np.ones(1))]), tmp_path / "s", n=3
            )

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 40),
        m=st.integers(0, 120),
        chunk=st.integers(1, 50),
        seed=st.integers(0, 2**16),
    )
    def test_chunk_size_never_changes_the_graph(self, n, m, chunk, seed):
        import tempfile

        rng = np.random.default_rng(seed)
        u = rng.integers(0, n, m)
        v = rng.integers(0, n, m)
        w = rng.integers(1, 6, m).astype(float)
        ref = from_edges(n, np.stack([u, v], 1) if m else np.empty((0, 2), np.int64), w)
        chunks = [(u[i : i + 13], v[i : i + 13], w[i : i + 13]) for i in range(0, m, 13)]
        # tmp_path is function-scoped; hypothesis needs a fresh dir per example
        with tempfile.TemporaryDirectory() as td:
            got, _ = ingest_edge_chunks(
                iter(chunks), os.path.join(td, "s"), n=n, chunk_edges=chunk
            )
            assert_identical(ref, got)


# ----------------------------------------------------------------------
# text edge lists: streaming == in-RAM, vectorized writer, error paths
# ----------------------------------------------------------------------
class TestTextEdgeLists:
    def test_streaming_reader_equals_in_ram_loader(self, tmp_path):
        p = tmp_path / "messy.txt"
        p.write_text(
            "# 12 5\n"
            "\n"
            "# a prose comment\n"
            "0 1 2.5\n"
            "3 2 4\n"
            "\n"
            "0 1 1.5\n"  # duplicate pair, smaller weight wins
            "4 4 1\n"  # self loop, dropped
            "5 6\n"  # default weight
        )
        ref = load_edgelist(p)
        got, _ = ingest_edgelist(p, tmp_path / "s", chunk_edges=2)
        assert_identical(ref, got)
        assert ref.n == 12  # header preserved isolated vertices
        assert read_edgelist_header(p) == 12

    def test_vectorized_writer_matches_legacy_format(self, tmp_path):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)], weights=[1.0, 2.5, 0.1])
        p = tmp_path / "g.txt"
        save_edgelist(g, p)
        # integral weights as ints, others via repr — the legacy format
        assert p.read_text() == "# 4 3\n0 1 1\n1 2 2.5\n2 3 0.1\n"

    def test_writer_chunking_is_invisible(self, medium_weighted, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_edgelist(medium_weighted, a)
        save_edgelist(medium_weighted, b, chunk_edges=7)
        assert a.read_text() == b.read_text()

    def test_bad_token_raises_graph_format_error(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\nnope 2\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_edgelist(p)
        with pytest.raises(GraphFormatError):
            list(stream_edgelist(p))

    def test_short_line_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("7\n")
        with pytest.raises(GraphFormatError):
            load_edgelist(p)

    def test_float_vertex_id_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0.5 1 1\n")
        with pytest.raises(GraphFormatError):
            load_edgelist(p)

    def test_chunked_stream_respects_bound(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("".join(f"{i} {i + 1}\n" for i in range(10)))
        sizes = [len(c[0]) for c in stream_edgelist(p, chunk_edges=3)]
        assert sizes == [3, 3, 3, 1]


# ----------------------------------------------------------------------
# binary edge lists
# ----------------------------------------------------------------------
class TestBinaryEdgeLists:
    def test_roundtrip(self, medium_weighted, tmp_path):
        p = tmp_path / "g.bin"
        save_edgelist_binary(medium_weighted, p)
        assert read_binary_header(p) == (medium_weighted.n, medium_weighted.m)
        assert_identical(medium_weighted, load_edgelist_binary(p))

    def test_streaming_ingest_equals_loader(self, medium_weighted, tmp_path):
        p = tmp_path / "g.bin"
        save_edgelist_binary(medium_weighted, p)
        got, _ = ingest_edgelist_binary(p, tmp_path / "s", chunk_edges=57)
        assert_identical(medium_weighted, got)

    def test_truncated_file_rejected(self, medium_weighted, tmp_path):
        p = tmp_path / "g.bin"
        save_edgelist_binary(medium_weighted, p)
        data = p.read_bytes()
        (tmp_path / "t.bin").write_bytes(data[:-8])
        with pytest.raises(GraphFormatError, match="truncated"):
            list(stream_edgelist_binary(tmp_path / "t.bin"))

    def test_truncated_header_rejected(self, tmp_path):
        (tmp_path / "t.bin").write_bytes(b"RPED\x01")
        with pytest.raises(GraphFormatError, match="header"):
            read_binary_header(tmp_path / "t.bin")

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "t.bin").write_bytes(b"JUNK" + b"\x00" * 20)
        with pytest.raises(GraphFormatError, match="magic"):
            read_binary_header(tmp_path / "t.bin")


# ----------------------------------------------------------------------
# npz format 2 (direct CSR layout) + legacy compatibility
# ----------------------------------------------------------------------
class TestNpzFormats:
    def test_csr_layout_roundtrip_preserves_arc_order(self, medium_weighted, tmp_path):
        p = tmp_path / "g.npz"
        save_npz(medium_weighted, p)
        assert_identical(medium_weighted, load_npz(p))

    def test_legacy_edges_layout_still_readable(self, medium_weighted, tmp_path):
        # format 1 as old writers laid it out: no format field, edges + n
        g = medium_weighted
        p = tmp_path / "g.npz"
        np.savez_compressed(
            p, n=np.int64(g.n), edge_u=g.edge_u, edge_v=g.edge_v, edge_w=g.edge_w
        )
        assert_identical(g, load_npz(p))

    def test_future_format_rejected(self, medium_weighted, tmp_path):
        p = tmp_path / "g.npz"
        np.savez(p, format=np.int64(99), n=np.int64(1))
        with pytest.raises(GraphFormatError, match="format"):
            load_npz(p)
