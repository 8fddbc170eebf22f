"""Named workload registry for the benchmarks.

Gives every evaluation graph family a stable name + parameterization so
benchmark tables can cite their workloads ("grid-36", "gnm-1500x9000",
"rgg-giant-2500") and tests can enumerate the full zoo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.graph.builders import induced_subgraph
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class Workload:
    """A named graph family instance."""

    name: str
    description: str
    build: Callable[[int], CSRGraph]  # seed -> graph

    def __call__(self, seed: int = 0) -> CSRGraph:
        return self.build(seed)


def _giant(g: CSRGraph) -> CSRGraph:
    from repro.graph.components import largest_component

    sub, _ = induced_subgraph(g, largest_component(g))
    return sub


def _make_registry() -> Dict[str, Workload]:
    from repro.graph import (
        barabasi_albert_graph,
        gnm_random_graph,
        grid_graph,
        random_geometric_graph,
        torus_graph,
        with_random_weights,
    )
    from repro.graph.generators import rmat_graph

    reg: Dict[str, Workload] = {}

    def add(
        name: str, description: str, fn: Callable[..., object]
    ) -> None:
        reg[name] = Workload(name=name, description=description, build=fn)

    add("gnm-small", "G(400, 2400) connected — unit tests and registry runs",
        lambda seed: gnm_random_graph(400, 2400, seed=seed, connected=True))
    add("gnm-bench", "G(1500, 9000) connected — the Figure 1 workhorse",
        lambda seed: gnm_random_graph(1500, 9000, seed=seed, connected=True))
    add("gnm-weighted", "G(1500, 9000) with log-uniform weights, U = 2^12",
        lambda seed: with_random_weights(
            gnm_random_graph(1500, 9000, seed=seed, connected=True),
            1.0, 4096.0, "loguniform", seed=seed + 1))
    add("grid-36", "36x36 mesh (diameter 70) — the hopset workhorse",
        lambda seed: grid_graph(36, 36))
    add("torus-24", "24x24 torus — vertex-transitive mesh",
        lambda seed: torus_graph(24, 24))
    add("ba-500", "Barabasi-Albert n=500, k=3 — power-law degrees",
        lambda seed: barabasi_albert_graph(500, 3, seed=seed))
    add("rmat-9", "R-MAT scale 9 giant component — skewed Graph500-style",
        lambda seed: _giant(rmat_graph(9, edge_factor=6, seed=seed)))
    add("rgg-giant", "RGG(1200, r=0.05) giant component — road proxy",
        lambda seed: _giant(random_geometric_graph(1200, 0.05, seed=seed)))
    return reg


_REGISTRY = _make_registry()


def workload_names() -> List[str]:
    return sorted(_REGISTRY)


def get_workload(name: str) -> Workload:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {', '.join(workload_names())}"
        ) from None
