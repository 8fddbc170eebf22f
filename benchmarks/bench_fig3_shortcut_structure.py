"""Figure 3: the s-t path / decomposition interaction, measured.

Figure 3 is an illustration: an s-t path crosses clusters; its portion
between the first and last large-cluster touch is replaced by star +
clique + star.  This bench quantifies the picture on real clusterings:
how many segments the decomposition cuts a shortest path into
(Corollary 2.3's beta*w(p) expectation), how many of those segments lie
in large clusters, and how much of the path one 3-edge replacement can
swallow.
"""

from __future__ import annotations

import numpy as np
import pytest

import _report
from repro.clustering import est_cluster
from repro.paths.engine import shortest_paths
from repro.paths.trees import extract_path, shortest_path_forest

COLUMNS = ["beta", "path_hops", "segments", "predicted_cuts", "large_segments", "replaced_frac"]


def _path_anatomy(g, beta, seed, rho=8.0):
    c = est_cluster(g, beta, seed=seed, method="exact")
    parent, _ = shortest_path_forest(g, shortest_paths(g, 0).dist, 0)
    path = extract_path(parent, g.n - 1)
    labels = c.labels
    threshold = g.n / rho
    large = set(int(lab) for lab in np.flatnonzero(c.sizes >= threshold))

    segments = []
    start = 0
    for i in range(1, len(path) + 1):
        if i == len(path) or labels[path[i]] != labels[path[start]]:
            segments.append((start, i - 1, int(labels[path[start]])))
            start = i
    touches = [k for k, seg in enumerate(segments) if seg[2] in large]
    if touches:
        first, last = segments[touches[0]], segments[touches[-1]]
        replaced = (last[1] - first[0]) / max(len(path) - 1, 1)
    else:
        replaced = 0.0
    return {
        "path_hops": len(path) - 1,
        "segments": len(segments),
        "predicted_cuts": beta * (len(path) - 1),
        "large_segments": len(touches),
        "replaced_frac": replaced,
    }


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.2])
def test_fig3_segment_counts(benchmark, bench_grid, beta):
    g = bench_grid

    def run():
        rows = [_path_anatomy(g, beta, seed) for seed in range(5)]
        return {
            k: float(np.mean([r[k] for r in rows])) for k in rows[0]
        }

    avg = benchmark.pedantic(run, rounds=1, iterations=1)
    _report.record("Figure 3 path-shortcut anatomy", COLUMNS, beta=beta, **avg)
    # Corollary 2.3 shape: observed segment count tracks beta * path length
    # (segments = cuts + 1); generous 3x envelope for a 5-trial mean
    assert avg["segments"] - 1 <= 3.0 * avg["predicted_cuts"] + 3.0


def test_fig3_replacement_dominates_at_low_beta(benchmark, bench_grid):
    """With few, large clusters the 3-edge shortcut swallows most of the
    path — the regime Figure 3 depicts."""
    g = bench_grid

    def run():
        rows = [_path_anatomy(g, 0.05, seed) for seed in range(5)]
        return float(np.mean([r["replaced_frac"] for r in rows]))

    frac = benchmark.pedantic(run, rounds=1, iterations=1)
    assert frac >= 0.5
