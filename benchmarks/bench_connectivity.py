"""[SDB14] application: linear-work parallel connectivity by EST contraction.

The paper's introduction cites this as a marquee application of the
clustering.  We measure: rounds to convergence, geometric edge decay,
total PRAM work against the O(m) claim, and correctness vs the scipy
oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

import _report
from repro.graph import connected_components, gnm_random_graph
from repro.graph.parallel_connectivity import (
    edges_decay_trajectory,
    parallel_connectivity,
)
from repro.pram import PramTracker


@pytest.mark.parametrize("beta", [0.1, 0.2, 0.4])
def test_connectivity_rounds_and_work(benchmark, beta):
    g = gnm_random_graph(2000, 12000, seed=131, connected=False)

    def run():
        t = PramTracker(n=g.n)
        ncc, labels, rounds = parallel_connectivity(g, beta=beta, seed=132, tracker=t)
        return ncc, rounds, t

    ncc, rounds, t = benchmark.pedantic(run, rounds=1, iterations=1)
    ncc_ref, _ = connected_components(g)
    _report.record(
        "Parallel connectivity [SDB14]",
        ["beta", "rounds", "work", "work_per_edge", "components", "correct"],
        beta=beta,
        rounds=rounds,
        work=t.work,
        work_per_edge=t.work / g.m,
        components=ncc,
        correct=int(ncc == ncc_ref),
    )
    assert ncc == ncc_ref
    assert t.work <= 200 * g.m  # linear work with modest constants


def test_connectivity_edge_decay(benchmark):
    g = gnm_random_graph(2000, 16000, seed=133, connected=True)

    def run():
        return edges_decay_trajectory(g, beta=0.2, seed=134)

    sizes = benchmark.pedantic(run, rounds=1, iterations=1)
    for r, m in enumerate(sizes):
        _report.record(
            "Connectivity edge decay",
            ["round", "edges", "fraction"],
            round=r,
            edges=m,
            fraction=m / g.m,
        )
    assert sizes[-1] == 0
    # geometric decay: each round keeps a bounded fraction on average
    ratios = [sizes[i + 1] / max(sizes[i], 1) for i in range(len(sizes) - 1)]
    assert np.mean(ratios) <= 0.75
