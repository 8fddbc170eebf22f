"""SNAP snapshot reader: real-world mess handled deliberately.

SNAP dumps arrive with free-form ``#`` comments, a ``# Nodes: N
Edges: M`` census line, arbitrary (often 1-based) vertex ids, self
loops, duplicate and reverse-orientation rows, and CRLF line endings —
:func:`repro.graph.io.load_snap` must clean all of it and account for
every dropped line in :class:`~repro.graph.io.SnapStats`.  Truncated
files (fewer edges than the census promises) must refuse loudly with a
line number, not load a silently smaller graph.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import gnm_random_graph, load_snap, read_snap_header
from repro.graph.io import save_edgelist, stream_edgelist

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "karate.snap")


def _write(tmp_path, text, name="g.snap", newline=None):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8", newline=newline) as f:
        f.write(text)
    return str(path)


class TestKarateFixture:
    def test_loads_and_matches_census(self):
        g, stats = load_snap(FIXTURE)
        assert g.n == 34 and g.m == 78
        assert stats.header_nodes == 34 and stats.header_edges == 78
        assert stats.raw_edges == 78
        assert stats.self_loops == 0 and stats.merged_duplicates == 0

    def test_one_based_ids_compacted_in_order(self):
        g, stats = load_snap(FIXTURE)
        assert stats.vertex_ids.shape == (34,)
        assert stats.vertex_ids[0] == 1 and stats.vertex_ids[-1] == 34
        assert np.array_equal(stats.vertex_ids, np.arange(1, 35))

    def test_header_reader(self):
        assert read_snap_header(FIXTURE) == (34, 78)


class TestHeaderVariants:
    def test_colonless_census(self, tmp_path):
        p = _write(tmp_path, "# Nodes 3 Edges 2\n0 1\n1 2\n")
        assert read_snap_header(p) == (3, 2)

    def test_census_after_prose_comments(self, tmp_path):
        p = _write(
            tmp_path,
            "# Directed graph: web-Foo.txt\n# Crawled 2002\n"
            "# Nodes: 3 Edges: 2\n# FromNodeId\tToNodeId\n0 1\n1 2\n",
        )
        assert read_snap_header(p) == (3, 2)

    def test_no_census(self, tmp_path):
        p = _write(tmp_path, "# just prose\n0 1\n")
        assert read_snap_header(p) == (None, None)
        g, stats = load_snap(p)
        assert g.m == 1 and stats.header_edges is None

    def test_census_below_data_is_not_a_header(self, tmp_path):
        p = _write(tmp_path, "0 1\n# Nodes: 99 Edges: 99\n1 2\n")
        assert read_snap_header(p) == (None, None)
        g, _ = load_snap(p)  # the buried comment is skipped, not enforced
        assert g.m == 2


class TestCleaning:
    def test_self_loops_dropped_and_counted(self, tmp_path):
        p = _write(tmp_path, "0 0\n0 1\n1 1\n1 2\n")
        g, stats = load_snap(p)
        assert g.m == 2
        assert stats.raw_edges == 4 and stats.self_loops == 2
        assert stats.merged_duplicates == 0

    def test_duplicate_and_reversed_rows_merged(self, tmp_path):
        # directed dumps list both orientations; exact repeats also occur
        p = _write(tmp_path, "0 1\n1 0\n0 1\n1 2\n2 1\n")
        g, stats = load_snap(p)
        assert g.m == 2
        assert stats.raw_edges == 5
        assert stats.self_loops == 0 and stats.merged_duplicates == 3

    def test_merge_keeps_minimum_weight(self, tmp_path):
        p = _write(tmp_path, "0 1 5.0\n1 0 2.0\n")
        g, _ = load_snap(p)
        assert g.m == 1 and float(g.edge_w[0]) == 2.0

    def test_arbitrary_ids_compact_ascending(self, tmp_path):
        p = _write(tmp_path, "100 7\n7 1000000\n")
        g, stats = load_snap(p)
        assert g.n == 3
        assert np.array_equal(stats.vertex_ids, [7, 100, 1000000])
        # edge (100, 7) -> compact (1, 0); (7, 1000000) -> (0, 2)
        edges = set(zip(g.edge_u.tolist(), g.edge_v.tolist()))
        assert edges == {(0, 1), (0, 2)}

    def test_crlf_line_endings(self, tmp_path):
        p = _write(
            tmp_path, "# Nodes: 3 Edges: 2\r\n1\t2\r\n2\t3\r\n", newline=""
        )
        g, stats = load_snap(p)
        assert g.n == 3 and g.m == 2
        assert stats.header_edges == 2

    def test_comments_and_blanks_interleaved(self, tmp_path):
        p = _write(tmp_path, "# head\n0 1\n\n# mid comment\n1 2\n\n")
        g, _ = load_snap(p)
        assert g.m == 2


class TestRefusals:
    def test_truncated_below_census(self, tmp_path):
        p = _write(tmp_path, "# Nodes: 4 Edges: 5\n0 1\n1 2\n2 3\n")
        with pytest.raises(GraphFormatError) as exc:
            load_snap(p)
        msg = str(exc.value)
        assert "truncated" in msg and "5" in msg and "3" in msg
        assert "line 4" in msg  # the last line actually read

    def test_bad_token_names_line(self, tmp_path):
        p = _write(tmp_path, "# ok\n0 1\n1 frog\n")
        with pytest.raises(GraphFormatError, match="line 3"):
            load_snap(p)

    def test_single_column_line(self, tmp_path):
        p = _write(tmp_path, "0 1\n7\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_snap(p)

    def test_negative_ids_refused(self, tmp_path):
        p = _write(tmp_path, "-1 3\n")
        with pytest.raises(GraphFormatError, match="negative"):
            load_snap(p)

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path, "# Nodes: 0 Edges: 0\n")
        g, stats = load_snap(p)
        assert g.n == 0 and g.m == 0 and stats.raw_edges == 0


class TestStreaming:
    def test_stream_yields_raw_rows(self, tmp_path):
        p = _write(tmp_path, "# c\n0 0\n0 1\n1 0\n1 2\n")
        chunks = list(stream_edgelist(p, chunk_edges=2))
        assert len(chunks) == 2
        total = sum(c[0].shape[0] for c in chunks)
        assert total == 4  # no cleaning in the stream: loops/dups flow through

    def test_stream_matches_load(self):
        u_all = np.concatenate([c[0] for c in stream_edgelist(FIXTURE)])
        g, stats = load_snap(FIXTURE)
        assert u_all.shape[0] == stats.raw_edges == g.m


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(min_value=2, max_value=60),
    extra=st.integers(min_value=0, max_value=80),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_roundtrip_through_save_edgelist(tmp_path_factory, n, extra, seed):
    """A graph saved by :func:`save_edgelist` reloads identically via
    ``load_snap``: connected => every id appears, compaction is the
    identity, and ``from_edges`` canonicalization makes the edge arrays
    comparable byte for byte."""
    g = gnm_random_graph(n, min(n - 1 + extra, n * (n - 1) // 2), seed=seed, connected=True)
    path = str(tmp_path_factory.mktemp("snap") / "roundtrip.snap")
    save_edgelist(g, path)
    h, stats = load_snap(path)
    assert h.n == g.n and h.m == g.m
    assert np.array_equal(stats.vertex_ids, np.arange(g.n))
    assert np.array_equal(h.edge_u, g.edge_u)
    assert np.array_equal(h.edge_v, g.edge_v)
    assert np.array_equal(h.edge_w, g.edge_w)
    assert stats.self_loops == 0 and stats.merged_duplicates == 0
