"""Shared fixtures: a zoo of small graphs exercised across test modules,
and the engine kernel under test."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import engine_kernel
from repro.graph import from_edges, gnm_random_graph, grid_graph, path_graph, with_random_weights


@pytest.fixture
def kernel(request):
    """Run the test on an indirectly parametrized engine kernel
    (``oracles.KERNELS``): ``"reference"`` swaps the heapq oracle in
    for the numpy kernels for the duration of the test.  Yields the
    kernel name."""
    with engine_kernel(request.param):
        yield request.param


@pytest.fixture
def triangle():
    return from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def small_path():
    return path_graph(10)


@pytest.fixture
def small_grid():
    return grid_graph(8, 8)


@pytest.fixture
def small_gnm():
    return gnm_random_graph(120, 480, seed=7, connected=True)


@pytest.fixture
def small_weighted():
    g = gnm_random_graph(100, 400, seed=11, connected=True)
    return with_random_weights(g, 1.0, 64.0, "loguniform", seed=12)


@pytest.fixture
def small_int_weighted():
    g = gnm_random_graph(80, 300, seed=13, connected=True)
    return with_random_weights(g, 1, 9, "integer", seed=14)


@pytest.fixture
def disconnected():
    # two triangles + an isolated vertex
    return from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


@pytest.fixture
def empty_graph():
    return from_edges(5, np.empty((0, 2), dtype=np.int64))
