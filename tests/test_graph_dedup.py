"""Oracle suite for the ordering and dedup primitives of ``repro.graph.dedup``.

``stable_argsort`` must return exactly the indices of numpy's
comparison sorts (``np.argsort(kind="stable")`` for one key,
``np.lexsort`` for several), ``first_of_runs`` exactly those of the
lexsort body it replaced (``tests/oracles/dedup.py``), and
``build_csr`` the arc order of a stable argsort by source.  Inputs
span both sides of the radix cutoff, keys needing one to four 16-bit
passes (ids near ``2^40`` included), negative keys, narrow dtypes,
heavy ties, and float ``prefer`` arrays holding ``±0.0``, ``±inf`` and
NaN.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import dedup
from repro.graph.csr import build_csr
from repro.graph.dedup import (
    RADIX_MIN_ROWS,
    first_of_runs,
    presence_unique,
    rows_by_value,
    stable_argsort,
)

from oracles import first_of_runs_lexsort

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: key ranges ``(lo, hi)`` (inclusive) needing 1, 2, 3 and 4 radix passes
RANGES = {
    "tied": (0, 3),
    "one_pass": (0, 2**16 - 1),
    "negative": (-(2**15), 2**15 - 1),
    "two_pass": (-(2**20), 2**20),
    "three_pass": (0, 2**33),
    "near_2_40": (2**40 - 2**10, 2**40 + 2**10),
    "ids_to_2_40": (0, 2**40 + 5),
    "full_int64": (np.iinfo(np.int64).min, np.iinfo(np.int64).max),
}

#: row counts on both sides of the cutoff, and a few well past it
SIZES = st.one_of(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=RADIX_MIN_ROWS - 3, max_value=RADIX_MIN_ROWS + 3),
    st.integers(min_value=RADIX_MIN_ROWS, max_value=5000),
)


def draw_key(rng, m, kind, dtype=np.int64):
    """``m`` keys of range ``kind`` as ``dtype`` (``int64`` when the
    range does not fit it), with long runs of one repeated value."""
    lo, hi = RANGES[kind]
    info = np.iinfo(dtype)
    if lo < int(info.min) or hi > int(info.max):
        dtype = np.int64
    key = rng.integers(lo, hi, size=m, endpoint=True, dtype=np.int64)
    if m and kind != "tied":
        key[rng.random(m) < 0.5] = key[0]
    return key.astype(dtype)


@st.composite
def keys_inputs(draw, max_keys=3):
    m = draw(SIZES)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    count = draw(st.integers(min_value=1, max_value=max_keys))
    rng = np.random.default_rng(seed)
    keys = []
    for _ in range(count):
        kind = draw(st.sampled_from(sorted(RANGES)))
        dtype = draw(st.sampled_from([np.int64, np.int32, np.int16, np.uint64]))
        keys.append(draw_key(rng, m, kind, dtype))
    return keys


class TestStableArgsort:
    @given(keys=keys_inputs(max_keys=1))
    @SETTINGS
    def test_one_key_equals_stable_argsort(self, keys):
        got = stable_argsort(*keys)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.argsort(keys[0], kind="stable"))

    @given(keys=keys_inputs())
    @SETTINGS
    def test_keys_equal_lexsort(self, keys):
        assert np.array_equal(stable_argsort(*keys), np.lexsort(keys[::-1]))

    @pytest.mark.parametrize("kind", sorted(RANGES))
    @pytest.mark.parametrize("m", [RADIX_MIN_ROWS - 1, RADIX_MIN_ROWS, 3 * RADIX_MIN_ROWS])
    def test_every_range_at_the_cutoff(self, kind, m):
        rng = np.random.default_rng(m)
        key = draw_key(rng, m, kind)
        assert np.array_equal(stable_argsort(key), np.argsort(key, kind="stable"))

    def test_extremes_of_int64(self):
        info = np.iinfo(np.int64)
        key = np.tile(np.array([info.max, info.min, -1, 0, 1, info.max - 1]), 400)
        assert np.array_equal(stable_argsort(key), np.argsort(key, kind="stable"))

    def test_constant_and_empty_keys(self):
        key = np.full(3 * RADIX_MIN_ROWS, 7, dtype=np.int64)
        assert np.array_equal(stable_argsort(key), np.arange(key.shape[0]))
        assert stable_argsort(np.empty(0, np.int64)).shape == (0,)

    def test_rejects_bad_keys(self):
        for m in (8, RADIX_MIN_ROWS):
            with pytest.raises(TypeError, match="integer"):
                stable_argsort(np.zeros(m))
            with pytest.raises(ValueError, match="one length"):
                stable_argsort(np.zeros(m, np.int64), np.zeros(m + 1, np.int64))
        with pytest.raises(ValueError, match="at least one"):
            stable_argsort()

    def test_radix_path_starts_at_the_cutoff(self, monkeypatch):
        """Comparison sorts below 1,024 rows, radix passes from there on."""
        calls = []
        real = dedup._radix_passes
        monkeypatch.setattr(
            dedup, "_radix_passes", lambda k, o: calls.append(k.shape[0]) or real(k, o)
        )
        rng = np.random.default_rng(0)
        for m in (1023, 1024):
            key = rng.integers(0, 10, m)
            stable_argsort(key)
            first_of_runs((key,), prefer=(rng.random(m),))
        assert RADIX_MIN_ROWS == 1024
        assert calls == [1024, 1024]


def prefer_array(rng, m, kind):
    if kind == "int":
        return rng.integers(-3, 3, m)
    vals = np.array([0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, 2.0])
    if kind == "nan":
        vals = np.append(vals, np.nan)
    out = vals[rng.integers(0, vals.shape[0], m)]
    if kind == "nan" and m:
        # NaN-heavy, so some runs are NaN throughout
        out[rng.random(m) < 0.3] = np.nan
    return out


@st.composite
def dedup_inputs(draw):
    m = draw(SIZES)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n_keys = draw(st.integers(min_value=1, max_value=2))
    kinds = draw(st.lists(st.sampled_from(sorted(RANGES)), min_size=n_keys, max_size=n_keys))
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    run_keys = [draw_key(rng, m, kind, dtype) for kind in kinds]
    n_prefer = draw(st.integers(min_value=0, max_value=2))
    prefer = [
        prefer_array(rng, m, draw(st.sampled_from(["int", "float", "nan"])))
        for _ in range(n_prefer)
    ]
    return run_keys, prefer


class TestFirstOfRuns:
    @given(inp=dedup_inputs())
    @SETTINGS
    def test_equals_lexsort_oracle(self, inp):
        run_keys, prefer = inp
        got = first_of_runs(run_keys, prefer=prefer)
        assert got.dtype == np.int64
        assert np.array_equal(got, first_of_runs_lexsort(run_keys, prefer=prefer))

    @pytest.mark.parametrize("m", [8, RADIX_MIN_ROWS, 2 * RADIX_MIN_ROWS + 1])
    def test_ties_go_to_the_earliest_row(self, m):
        key = np.zeros(m, np.int64)
        key[m // 2 :] = 1
        w = np.ones(m)
        w[[1, 2, m - 2, m - 1]] = 0.5
        assert first_of_runs((key,), prefer=(w,)).tolist() == [1, m - 2]
        assert first_of_runs((key,)).tolist() == [0, m // 2]

    @pytest.mark.parametrize("m", [6, 2 * RADIX_MIN_ROWS])
    def test_nan_ranks_last(self, m):
        """NaN matches np.lexsort: it loses to every number and ties NaN,
        so an all-NaN run falls through to the next ``prefer`` array."""
        rows = np.arange(m)
        key = rows * 3 // m
        w = np.full(m, np.nan)
        w[(key == 0) & (rows % 2 == 1)] = np.inf
        w[np.flatnonzero(key == 1)[-1]] = -0.0
        tie = (rows * 7) % 5
        want = [
            min(np.flatnonzero(key == r), key=lambda i: (np.isnan(w[i]), np.nan_to_num(w[i]), tie[i], i))
            for r in range(3)
        ]
        got = first_of_runs((key,), prefer=(w, tie))
        assert got.tolist() == want
        assert np.array_equal(got, first_of_runs_lexsort((key,), prefer=(w, tie)))

    def test_negative_zero_ties_positive_zero(self):
        m = 2 * RADIX_MIN_ROWS
        w = np.where(np.arange(m) % 2 == 0, 0.0, -0.0)
        assert first_of_runs((np.zeros(m, np.int64),), prefer=(w,)).tolist() == [0]

    def test_rejects_bad_inputs(self):
        m = RADIX_MIN_ROWS
        with pytest.raises(ValueError, match="at least one"):
            first_of_runs(())
        with pytest.raises(TypeError, match="integer"):
            first_of_runs((np.zeros(m),))
        with pytest.raises(ValueError):
            first_of_runs((np.zeros(m, np.int64),), prefer=(np.zeros(m - 1),))
        assert first_of_runs((np.empty(0, np.int64),)).shape == (0,)


class TestRowsByValue:
    @given(m=SIZES, size=st.integers(min_value=1, max_value=40),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @SETTINGS
    def test_equals_per_value_scans(self, m, size, seed):
        key = np.random.default_rng(seed).integers(0, size, m)
        got = rows_by_value(key, size)
        assert len(got) == size
        for v, rows in enumerate(got):
            assert np.array_equal(rows, np.flatnonzero(key == v))


class TestPresenceUnique:
    @given(m=SIZES, size=st.integers(min_value=1, max_value=10**6),
           factor=st.sampled_from([0, 1, 16]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @SETTINGS
    def test_equals_unique(self, m, size, factor, seed):
        rng = np.random.default_rng(seed)
        parts = (rng.integers(0, size, m), rng.integers(0, size, m // 2))
        got = presence_unique(size, parts, sparse_factor=factor)
        assert np.array_equal(got, np.unique(np.concatenate(parts)))


class TestBuildCsrArcOrder:
    @given(m=SIZES, n=st.integers(min_value=2, max_value=2**17),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           dtype=st.sampled_from([np.int64, np.int32]))
    @SETTINGS
    def test_arcs_grouped_by_source_in_stable_order(self, m, n, seed, dtype):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, n, m).astype(dtype)
        v = rng.integers(0, n, m).astype(dtype)
        w = rng.random(m) + 0.5
        g = build_csr(n, u, v, w)
        src = np.concatenate([u, v])
        order = np.argsort(src, kind="stable")
        assert np.array_equal(g.indices, np.concatenate([v, u])[order])
        assert np.array_equal(g.weights, np.concatenate([w, w])[order])
        assert np.array_equal(g.edge_ids, np.tile(np.arange(m), 2)[order])
        assert np.array_equal(g.indptr, np.searchsorted(src[order], np.arange(n + 1)))
