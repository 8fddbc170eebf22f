"""Oracle suite for the numpy kernels' relaxation round.

``bucket_sssp_batch`` (and ``bucket_sssp``, its one-run case) must
return exactly what the per-arc round it replaced returns
(``tests/oracles/bucket.py``): the same ``dist`` values and dtype and
the same ``bucket_work`` and ``bucket_rounds`` ledgers.  Inputs are
built the way the engine builds them (its own run normalisation,
weight/delta resolution and light/heavy split), over uniform, random
integer, random float and log-uniform weights, default, tiny and huge
``delta``, integer, float and negative offsets, multi-source runs with
repeated sources, k-run batches, disconnected and edgeless graphs, and
int32 CSR arrays.  Every row of a batch must equal a standalone
``bucket_sssp`` run on the same sources.  ``expand_frontier`` must
list the slots of the five-pass formula it replaced, for frontiers
with repeated and zero-degree vertices.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.builders import from_edges
from repro.graph.csr import csr_from_arrays
from repro.kernels.numpy_kernel import (
    bucket_sssp,
    bucket_sssp_batch,
    expand_frontier,
    split_light_heavy,
)
from repro.paths.engine import _normalize_runs, _resolve_split, _resolve_weights_and_delta

from oracles import bucket_sssp_batch_reference

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

WEIGHT_KINDS = ("unit", "uniform_int", "uniform_float", "int", "float", "log_uniform")
OFFSET_KINDS = ("none", "int", "float", "negative_int", "negative_float")
DELTA_KINDS = ("default", "tiny", "huge")


def make_graph(rng, n, m, weight_kind, components=1, index_dtype=np.int64):
    """A random multigraph-free graph on ``n`` vertices with about ``m``
    edges spread over ``components`` vertex blocks (isolated vertices
    included), with per-arc weights of ``weight_kind`` and CSR index
    arrays of ``index_dtype``."""
    if n == 0 or m == 0:
        edges = np.empty((0, 2), dtype=np.int64)
    else:
        block = np.sort(rng.integers(0, components, n))
        u = rng.integers(0, n, m)
        v = rng.integers(0, n, m)
        keep = (u != v) & (block[u] == block[v])
        edges = np.stack([u[keep], v[keep]], axis=1)
    g = from_edges(n, edges)
    if weight_kind == "unit":
        edge_w = np.ones(g.m, dtype=np.int64)
    elif weight_kind == "uniform_int":
        edge_w = np.full(g.m, 3, dtype=np.int64)
    elif weight_kind == "uniform_float":
        edge_w = np.full(g.m, 2.5)
    elif weight_kind == "int":
        edge_w = rng.integers(0, 10, g.m)  # zero-weight arcs included
    elif weight_kind == "float":
        edge_w = rng.uniform(0.0, 10.0, g.m)
    else:
        edge_w = 2.0 ** rng.uniform(0, 30, g.m)
    arc_w = edge_w[g.edge_ids]
    return csr_from_arrays(
        g.n,
        g.indptr.astype(index_dtype),
        g.indices.astype(index_dtype),
        arc_w,
        g.edge_ids.astype(index_dtype),
        g.edge_u.astype(index_dtype),
        g.edge_v.astype(index_dtype),
        edge_w,
    )


def draw_offsets(rng, count, kind):
    if kind == "none":
        return None
    if kind == "int":
        return rng.integers(0, 12, count)
    if kind == "float":
        return rng.uniform(0.0, 12.0, count)
    if kind == "negative_int":
        return rng.integers(-12, 12, count)
    return rng.uniform(-12.0, 12.0, count)


def draw_runs(rng, n, shape, k):
    """``k`` runs of ``shape`` ``"flat"`` (one source each) or ``"multi"``
    (one to five sources each, drawn with replacement so runs repeat
    sources and their rank ties matter)."""
    if shape == "flat":
        return rng.integers(0, n, k)
    return [rng.integers(0, n, int(rng.integers(1, 6))) for _ in range(k)]


def kernel_inputs(g, sources, offsets, delta_kind):
    """The kernel call the engine makes for ``shortest_paths_batch``,
    with ``offsets`` (``None``, one array for flat sources, or one
    array per run) flattened alongside the runs: the engine's batch
    starts every run at zero, but its kernel takes any offsets, as
    ``shortest_paths`` passes them."""
    run_src, run_ptr = _normalize_runs(sources, g.n)
    if offsets is None:
        offs = np.zeros(run_src.shape[0], dtype=np.int64)
    elif isinstance(offsets, list):
        offs = np.concatenate(offsets)
    else:
        offs = np.asarray(offsets)
    w, int_mode, delta = _resolve_weights_and_delta(g, None, offs, None)
    if delta_kind == "tiny":
        delta = 1 if int_mode else delta * 1e-3
    elif delta_kind == "huge":
        delta = 10**6 if int_mode else delta * 1e6
    split = _resolve_split(g, None, w, delta, int_mode)
    return (g.indptr, g.indices, w, g.n, run_src, run_ptr, offs, delta, split)


def assert_same(got, want):
    """``(dist, bucket_work, bucket_rounds)`` equal value for value,
    ``dist`` dtype for dtype."""
    assert got[0].dtype == want[0].dtype
    np.testing.assert_array_equal(got[0], want[0], err_msg="dist")
    assert got[1] == want[1], "bucket_work"
    assert got[2] == want[2], "bucket_rounds"


@st.composite
def cases(draw):
    n = draw(st.one_of(st.integers(0, 12), st.integers(13, 120), st.integers(200, 600)))
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        n=n,
        density=draw(st.sampled_from((0.0, 0.5, 1.5, 4.0))),
        components=draw(st.integers(1, 4)),
        weight_kind=draw(st.sampled_from(WEIGHT_KINDS)),
        offset_kind=draw(st.sampled_from(OFFSET_KINDS)),
        delta_kind=draw(st.sampled_from(DELTA_KINDS)),
        shape=draw(st.sampled_from(("flat", "multi"))),
        k=draw(st.integers(1, 5)),
        index_dtype=draw(st.sampled_from((np.int64, np.int32))),
    )


def build_case(c):
    rng = np.random.default_rng(c["seed"])
    n = max(c["n"], 1)
    g = make_graph(
        rng, n, int(c["density"] * n), c["weight_kind"],
        components=c["components"], index_dtype=c["index_dtype"],
    )
    sources = draw_runs(rng, n, c["shape"], c["k"])
    count = len(sources) if c["shape"] == "flat" else None
    if c["offset_kind"] == "none":
        offsets = None
    elif count is not None:
        offsets = draw_offsets(rng, count, c["offset_kind"])
    else:
        offsets = [draw_offsets(rng, len(r), c["offset_kind"]) for r in sources]
    return g, sources, offsets


class TestBatchMatchesReference:
    @SETTINGS
    @given(cases())
    def test_random_cases(self, c):
        g, sources, offsets = build_case(c)
        args = kernel_inputs(g, sources, offsets, c["delta_kind"])
        assert_same(bucket_sssp_batch(*args), bucket_sssp_batch_reference(*args))

    @SETTINGS
    @given(cases())
    def test_single_run_wrapper(self, c):
        """``bucket_sssp`` (k = 1, the server's and suite's hot path)."""
        g, sources, offsets = build_case(dict(c, shape="multi", k=1))
        args = kernel_inputs(g, sources, offsets, c["delta_kind"])
        indptr, indices, w, n, run_src, run_ptr, offs, delta, split = args
        got = bucket_sssp(indptr, indices, w, n, run_src, offs, delta, split)
        assert_same(got, bucket_sssp_batch_reference(*args))

    @pytest.mark.parametrize("weight_kind", ["uniform_int", "uniform_float", "unit"])
    @pytest.mark.parametrize("shape", ["flat", "multi"])
    def test_uniform_weights_at_default_delta(self, weight_kind, shape):
        """At the default delta a uniform float graph has no light arc:
        every light round relaxes an empty half and is still charged."""
        rng = np.random.default_rng(17)
        g = make_graph(rng, 300, 1200, weight_kind, components=2)
        args = kernel_inputs(g, draw_runs(rng, 300, shape, 4), None, "default")
        split = args[-1]
        if weight_kind == "uniform_float":
            assert split[1].shape[0] == 0 and split[4].shape[0] == g.num_arcs
            # one light and one heavy round per bucket
            assert all(r == 2 for r in bucket_sssp_batch_reference(*args)[2])
        assert_same(bucket_sssp_batch(*args), bucket_sssp_batch_reference(*args))

    @pytest.mark.parametrize("index_dtype", [np.int64, np.int32])
    def test_rank_ties_between_repeated_sources(self, index_dtype):
        """Runs that repeat sources, whose waves meet at equal
        distances many hops from the seeds."""
        rng = np.random.default_rng(3)
        g = make_graph(rng, 400, 1600, "unit", index_dtype=index_dtype)
        runs = [np.array([5, 9, 5, 200]), np.array([9, 5]), np.array([399, 0, 0])]
        for offsets in (None, [np.zeros(4), np.zeros(2), np.zeros(3)]):
            args = kernel_inputs(g, runs, offsets, "default")
            assert_same(bucket_sssp_batch(*args), bucket_sssp_batch_reference(*args))

    def test_edgeless_and_empty(self):
        for n in (1, 7):
            g = make_graph(np.random.default_rng(0), n, 0, "float")
            for sources in (np.arange(n), [np.array([0, 0])], np.empty(0, np.int64)):
                args = kernel_inputs(g, sources, None, "default")
                assert_same(bucket_sssp_batch(*args), bucket_sssp_batch_reference(*args))


def parallel_arc_csr(n, edges, weights):
    """Raw CSR arrays of an undirected multigraph: each edge, parallel
    copies included, becomes one arc in each direction."""
    u, v = np.asarray(edges).T
    tail = np.concatenate([u, v])
    order = np.argsort(tail, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
    head = np.concatenate([v, u])[order]
    return indptr, head, np.concatenate([weights, weights])[order]


class TestDistancesOnlyRound:
    @SETTINGS
    @given(cases())
    def test_random_cases(self, c):
        """Every row of a batch is a standalone ``bucket_sssp`` run on
        that row's sources, dtype for dtype."""
        g, sources, offsets = build_case(c)
        args = kernel_inputs(g, sources, offsets, c["delta_kind"])
        indptr, indices, w, n, run_src, run_ptr, offs, delta, split = args
        dist = bucket_sssp_batch(*args)[0].reshape(-1, n)
        for r in range(run_ptr.shape[0] - 1):
            lo, hi = run_ptr[r], run_ptr[r + 1]
            row = bucket_sssp(indptr, indices, w, n, run_src[lo:hi], offs[lo:hi], delta, split)[0]
            assert row.dtype == dist.dtype
            np.testing.assert_array_equal(dist[r], row)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_rank_ties_and_parallel_arcs(self, dtype):
        """Sources of one run meet at equal distance (a tie one
        min-write settles), a run repeats a source, and the path
        carries parallel arcs of equal and of larger weight."""
        edges = [(0, 1), (1, 2), (1, 2), (1, 2), (2, 3), (2, 3), (3, 4)]
        weights = np.array([1, 1, 1, 3, 1, 1, 1], dtype=dtype)
        indptr, indices, w = parallel_arc_csr(5, edges, weights)
        run_src = np.array([0, 4, 4, 0, 4, 2])
        run_ptr = np.array([0, 2, 5, 6])
        offsets = np.zeros(6, dtype=dtype)
        delta = dtype(1)
        split = None
        if dtype is np.float64:
            split = split_light_heavy(indptr, indices, w, delta)
            assert split[4].shape[0] == 2  # the heavy parallel arcs
        args = (indptr, indices, w, 5, run_src, run_ptr, offsets, delta, split)
        got = bucket_sssp_batch(*args)
        assert_same(got, bucket_sssp_batch_reference(*args))
        want = [0, 1, 2, 1, 0] * 2 + [2, 1, 0, 1, 2]
        assert got[0].tolist() == want


def expand_five_pass(indptr, frontier):
    """The slot formula ``expand_frontier`` replaced."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    arc_index = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)
    return arc_index, np.repeat(frontier, counts)


class TestExpandFrontier:
    @SETTINGS
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 300),
        st.integers(0, 400),
        st.sampled_from((np.int64, np.int32)),
    )
    def test_matches_five_pass_formula(self, seed, n, size, dtype):
        rng = np.random.default_rng(seed)
        degrees = rng.integers(0, 6, n) * (rng.random(n) < 0.7)  # many zero-degree
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indptr = indptr.astype(dtype)
        frontier = rng.integers(0, n, size)  # with replacement: repeats
        arc_index, counts = expand_frontier(indptr, frontier)
        want_index, want_source = expand_five_pass(indptr, frontier)
        assert arc_index.dtype == np.int64
        np.testing.assert_array_equal(arc_index, want_index)
        np.testing.assert_array_equal(counts, degrees[frontier])
        np.testing.assert_array_equal(np.repeat(frontier, counts), want_source)

    def test_empty_frontier(self):
        arc_index, counts = expand_frontier(np.array([0, 2, 2]), np.empty(0, np.int64))
        assert arc_index.shape == (0,) and arc_index.dtype == np.int64
        assert counts.shape == (0,)
