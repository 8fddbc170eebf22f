"""Outside-in span tracer for the benchmark suite.

The library has no span tree of its own yet, so the traced run times
calls *into* each layer from outside: every function in :data:`TARGETS`
is replaced, at every place it is bound, by a wrapper that records one
span ``(name, phase, op id, parent, start ns, end ns)``.  "Every place"
means each attribute of a loaded ``repro.*`` module that *is* the
original function object (``from x import f`` copies the binding, so
patching the defining module alone would miss most call sites), plus
the class attribute for methods.  Nothing under ``src/`` changes.

Spans stay in memory; :meth:`Tracer.summary` turns them into per-layer
self times (a span's duration minus its direct children's) and call
counts once the run is over.  The wrappers can be switched off and on
between operations, which is how the traced run measures its own
overhead: it alternates traced and untraced operations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: span name -> (defining module, attribute path).  Span names are
#: ``<layer>.<function>``, the layer being the ``repro`` subpackage.
TARGETS: Dict[str, Tuple[str, str]] = {
    "graph.from_edges": ("repro.graph.builders", "from_edges"),
    "graph.induced_subgraph_forest": ("repro.graph.builders", "induced_subgraph_forest"),
    "graph.quotient_forest": ("repro.graph.quotient", "quotient_forest"),
    "graph.union_edges": ("repro.graph.unionfind", "UnionFind.union_edges"),
    "clustering.est_cluster_forest": ("repro.clustering.est", "est_cluster_forest"),
    "paths.shortest_paths": ("repro.paths.engine", "shortest_paths"),
    "paths.shortest_paths_batch": ("repro.paths.engine", "shortest_paths_batch"),
    "kernels.bucket_sssp": ("repro.kernels.numpy_kernel", "bucket_sssp"),
    "kernels.bucket_sssp_batch": ("repro.kernels.numpy_kernel", "bucket_sssp_batch"),
    "kernels.hop_sssp_batch": ("repro.kernels.numpy_kernel", "hop_sssp_batch"),
    "hopsets.build_hopset": ("repro.hopsets.unweighted", "build_hopset"),
    "hopsets.union_csr": ("repro.hopsets.result", "HopsetResult.union_csr"),
    "spanners.weighted_spanner": ("repro.spanners.weighted", "weighted_spanner"),
    "serve.query_batch": ("repro.serve.server", "DistanceServer.query_batch"),
    "serve.apply_updates": ("repro.serve.server", "DistanceServer.apply_updates"),
    "dynamic.apply_batch": ("repro.dynamic.batch", "apply_batch"),
    "dynamic.repair_hopset": ("repro.dynamic.hopset", "repair_hopset"),
}

#: spans reported per operation: everything an operation can reach
OP_SPANS = tuple(s for s in TARGETS if s not in ("graph.from_edges", "hopsets.build_hopset"))

#: spans reported per set-up: graph compile, hopset build, server start
SETUP_SPANS = (
    "graph.from_edges",
    "hopsets.build_hopset",
    "clustering.est_cluster_forest",
    "paths.shortest_paths",
    "paths.shortest_paths_batch",
    "kernels.bucket_sssp",
    "kernels.bucket_sssp_batch",
    "graph.induced_subgraph_forest",
    "hopsets.union_csr",
)

#: spans whose return value carries engine work counters
_PATHS_SPANS = ("paths.shortest_paths", "paths.shortest_paths_batch")


def _resolve(module: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for a dotted attribute path."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Span recorder for the functions in :data:`TARGETS`.

    ``phase`` and ``op_id`` label the spans recorded next; the runner
    sets them around each set-up and operation.  ``counters`` sums
    ``arcs_relaxed`` and ``relax_rounds`` of every engine call per phase.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.op_id = 0
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, Dict[str, int]] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        originals: Dict[int, Any] = {}
        for name, (module, path) in TARGETS.items():
            owner, attr, fn = _resolve(module, path)
            originals[id(fn)] = (fn, self._wrap(name, fn))
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn, originals[id(fn)][1]))
        # every module-level binding of an original function object
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value, hit[1]))

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        counts_paths = name in _PATHS_SPANS

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            rec = [name, self.phase, self.op_id, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if counts_paths:
                c = self.counters.setdefault(self.phase, {})
                c["arcs_relaxed"] = c.get("arcs_relaxed", 0) + int(out.arcs_relaxed)
                c["relax_rounds"] = c.get("relax_rounds", 0) + int(out.relax_rounds)
            return out

        return traced

    def enable(self) -> None:
        for owner, attr, _orig, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        for owner, attr, orig, _wrapped in self._patches:
            setattr(owner, attr, orig)

    @property
    def binding_sites(self) -> int:
        return len(self._patches)

    # ------------------------------------------------------------------
    def summary(self, phase: str, names: Tuple[str, ...], units: int) -> Dict[str, float]:
        """Self time (ms) and call count of each span in ``names`` within
        ``phase``, averaged over ``units`` set-ups or traced operations;
        spans that never ran report 0."""
        child_ns = [0] * len(self.spans)
        for _name, _ph, _op, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self_ns = dict.fromkeys(TARGETS, 0)
        calls = dict.fromkeys(TARGETS, 0)
        for i, (name, ph, _op, _parent, t0, t1) in enumerate(self.spans):
            if ph == phase:
                self_ns[name] += t1 - t0 - child_ns[i]
                calls[name] += 1
        units = max(units, 1)
        out: Dict[str, float] = {}
        for name in names:
            out[f"{phase}.{name}.self_ms"] = self_ns[name] / 1e6 / units
            out[f"{phase}.{name}.calls"] = calls[name] / units
        return out

    def paths_counters(self, phase: str, units: int) -> Dict[str, float]:
        """Engine arcs relaxed and relaxation rounds per unit of ``phase``."""
        c = self.counters.get(phase, {})
        units = max(units, 1)
        return {
            f"{phase}.paths.arcs_relaxed": c.get("arcs_relaxed", 0) / units,
            f"{phase}.paths.relax_rounds": c.get("relax_rounds", 0) / units,
        }

    def dump(self) -> Dict[str, List[Any]]:
        """Column-oriented spans for the run's JSON record."""
        cols = ("name", "phase", "op", "parent", "start_ns", "end_ns")
        return {c: [s[i] for s in self.spans] for i, c in enumerate(cols)}
