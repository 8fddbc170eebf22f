"""The shipped invariant rules.

Each rule encodes one piece of the repo's determinism/plumbing
discipline (see the module docstrings it points at).  Rules are
deliberately calibrated against this tree: the blessed exceptions
(``repro/rng.py`` for RNG001, ``graph/dedup.py`` itself for DUP001)
are allowlisted here, in one place, instead of sprinkled as
suppression comments.

Shipped rules
-------------
RNG001  all randomness through :mod:`repro.rng` (determinism)
RNG002  no wall-clock / PID-derived seeds
API001  ``shortest_paths*`` callers plumb ``backend=``/``workers=``
KRN001  numpy/numba kernel-registry parity
BEN001  benchmarks carry an acceptance gate
DUP001  no re-inlined dedup idioms (use :mod:`repro.graph.dedup`)
SHD001  no shadowed builtins
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.core import FileContext, Finding, Rule, register

# --------------------------------------------------------------------------
# shared AST helpers
# --------------------------------------------------------------------------


def import_map(tree: ast.Module) -> Dict[str, str]:
    """Name bound in this module -> dotted origin.

    ``import numpy as np`` maps ``np -> numpy``;
    ``from numpy.random import default_rng as drg`` maps
    ``drg -> numpy.random.default_rng``.  Only module/attribute origins
    are tracked — that is all the rules below need.
    """
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
                if a.asname is None and "." in a.name:
                    # `import numpy.random` binds `numpy`
                    out[a.name.split(".")[0]] = a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for a in node.names:
                if a.name != "*":
                    out[a.asname or a.name] = f"{node.module}.{a.name}"
    return out


def dotted_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve an ``Attribute``/``Name`` chain to a dotted origin string."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    root = imports.get(cur.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


def subscript_base(node: ast.AST) -> Optional[str]:
    """Root name of a (possibly nested) subscript target, else None."""
    cur = node
    while isinstance(cur, ast.Subscript):
        cur = cur.value
    return cur.id if isinstance(cur, ast.Name) else None


# --------------------------------------------------------------------------
# RNG001 — all randomness through repro.rng
# --------------------------------------------------------------------------

#: entropy-creating numpy.random members; Generator/SeedSequence/PCG64
#: etc. are types (checkpoint restore constructs them from saved state)
_NP_RANDOM_BANNED = {
    "default_rng",
    "seed",
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "choice",
    "shuffle",
    "permutation",
    "bytes",
    "standard_normal",
    "uniform",
    "normal",
    "exponential",
    "poisson",
    "RandomState",
}


@register
class RngThroughReproRule(Rule):
    id = "RNG001"
    title = "all randomness must flow through repro.rng"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_module("repro/rng.py"):
            return
        imports = import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "random" or a.name.startswith("random."):
                        yield self.finding(
                            ctx,
                            node,
                            "stdlib `random` is nondeterministic across "
                            "processes; use repro.rng.resolve_rng/spawn",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mod = node.module or ""
                if mod == "random" or mod.startswith("random."):
                    yield self.finding(
                        ctx,
                        node,
                        "stdlib `random` is nondeterministic across "
                        "processes; use repro.rng.resolve_rng/spawn",
                    )
                elif mod in ("numpy.random", "numpy"):
                    for a in node.names:
                        if a.name in _NP_RANDOM_BANNED and mod == "numpy.random":
                            yield self.finding(
                                ctx,
                                node,
                                f"import of numpy.random.{a.name}: seed "
                                "policy lives in repro.rng "
                                "(resolve_rng/spawn_seeds)",
                            )
            elif isinstance(node, ast.Attribute):
                dn = dotted_name(node, imports)
                if dn is None:
                    continue
                if dn.startswith("numpy.random.") and dn.rsplit(".", 1)[-1] in (
                    _NP_RANDOM_BANNED
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{dn.replace('numpy', 'np', 1)} outside repro/rng.py: "
                        "route through repro.rng.resolve_rng/spawn_seeds so "
                        "every stream is seeded and spawn-derived",
                    )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                dn = imports.get(node.func.id)
                if dn in ("numpy.random.default_rng", "numpy.random.seed"):
                    yield self.finding(
                        ctx,
                        node,
                        f"bare {node.func.id}() outside repro/rng.py: use "
                        "repro.rng.resolve_rng",
                    )


# --------------------------------------------------------------------------
# RNG002 — no wall-clock or PID-derived seeds
# --------------------------------------------------------------------------

_ENTROPY_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "os.getpid",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.now",
    "datetime.utcnow",
}


@register
class NoWallClockSeedRule(Rule):
    id = "RNG002"
    title = "seeds must not derive from wall clock or PID"

    def _entropy_calls(
        self, node: ast.AST, imports: Dict[str, str]
    ) -> Iterator[ast.Call]:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                dn = dotted_name(sub.func, imports)
                if dn in _ENTROPY_CALLS:
                    yield sub

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dn = dotted_name(node.func, imports) or ""
                name_hint = dn.rsplit(".", 1)[-1].lower()
                seedish_callee = "rng" in name_hint or "seed" in name_hint
                for kw in node.keywords:
                    if kw.arg and "seed" in kw.arg.lower():
                        for bad in self._entropy_calls(kw.value, imports):
                            yield self._bad(ctx, bad)
                if seedish_callee:
                    for arg in node.args:
                        for bad in self._entropy_calls(arg, imports):
                            yield self._bad(ctx, bad)
            elif isinstance(node, ast.Assign):
                names = [
                    t.id
                    for t in node.targets
                    if isinstance(t, ast.Name) and "seed" in t.id.lower()
                ]
                if names:
                    for bad in self._entropy_calls(node.value, imports):
                        yield self._bad(ctx, bad)

    def _bad(self, ctx: FileContext, node: ast.Call) -> Finding:
        return self.finding(
            ctx,
            node,
            "seed derived from wall clock/PID breaks replayability: take "
            "an explicit seed and resolve it with repro.rng",
        )


# --------------------------------------------------------------------------
# API001 — backend/workers plumbing on the engine entry points
# --------------------------------------------------------------------------

_ENGINE_FNS = ("shortest_paths", "shortest_paths_batch")


@register
class EnginePlumbingRule(Rule):
    id = "API001"
    title = "shortest_paths* callers must plumb backend= and workers="

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # the engine module itself defines and dispatches these; tests
        # and benchmarks pin configurations on purpose
        if ctx.in_module("repro/paths/engine.py") or ctx.is_benchmark:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee: Optional[str] = None
            if isinstance(node.func, ast.Name) and node.func.id in _ENGINE_FNS:
                callee = node.func.id
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _ENGINE_FNS
            ):
                callee = node.func.attr
            if callee is None:
                continue
            kw_names = {kw.arg for kw in node.keywords}
            if None in kw_names:  # **kwargs forwards everything
                continue
            missing = [k for k in ("backend", "workers") if k not in kw_names]
            if missing:
                yield self.finding(
                    ctx,
                    node,
                    f"call to {callee}() does not forward "
                    f"{' or '.join(missing + [])}= — every layer between a "
                    "public entry point and the engine must accept and "
                    "pass through backend=/workers= (the PR 4-8 plumbing "
                    "gaps, now machine-checked)",
                )


# --------------------------------------------------------------------------
# KRN001 — numpy/numba kernel-registry parity
# --------------------------------------------------------------------------


@register
class KernelParityRule(Rule):
    id = "KRN001"
    title = "every registered numpy kernel has a numba twin"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_module("repro/kernels/__init__.py"):
            return
        numpy_kernels: List[Tuple[str, ast.ImportFrom]] = []
        numba_names: Set[str] = set()
        exported: Set[str] = set()
        have_numba_imported = False
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if mod.endswith("numpy_kernel"):
                    for a in node.names:
                        if "sssp" in a.name:
                            numpy_kernels.append((a.name, node))
                elif mod.endswith("numba_kernel"):
                    for a in node.names:
                        numba_names.add(a.name)
                        if a.name == "HAVE_NUMBA":
                            have_numba_imported = True
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id == "__all__":
                        if isinstance(node.value, (ast.List, ast.Tuple)):
                            for e in node.value.elts:
                                if isinstance(e, ast.Constant) and isinstance(
                                    e.value, str
                                ):
                                    exported.add(e.value)
        for name, node in numpy_kernels:
            twin = f"{name}_numba"
            if twin not in numba_names:
                yield self.finding(
                    ctx,
                    node,
                    f"numpy kernel `{name}` has no numba twin `{twin}` in "
                    "the registry — every backend pair must stay "
                    "swap-equivalent (ROADMAP: kernel-registry parity)",
                )
            elif exported and twin not in exported:
                yield self.finding(
                    ctx,
                    node,
                    f"numba twin `{twin}` is imported but not exported in "
                    "__all__ — registry consumers resolve kernels by name",
                )
        if numpy_kernels and not have_numba_imported:
            yield self.finding(
                ctx,
                ctx.tree,
                "kernel registry does not import HAVE_NUMBA — the "
                "graceful-fallback contract (numba -> numpy when the JIT "
                "toolchain is absent) must be visible at the registry",
            )


# --------------------------------------------------------------------------
# BEN001 — benchmarks carry an acceptance gate
# --------------------------------------------------------------------------


@register
class BenchAcceptanceRule(Rule):
    id = "BEN001"
    title = "every benchmark ships an acceptance gate"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_benchmark:
            return
        has_assert = any(
            isinstance(n, ast.Assert) for n in ast.walk(ctx.tree)
        )
        acceptance_dict = False
        for node in ast.walk(ctx.tree):
            # acceptance = {... "passed": ...} or
            # results["acceptance"] = {... "passed": ...}
            target_hit = False
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                value = node.value
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id == "acceptance":
                        target_hit = True
                    elif (
                        isinstance(t, ast.Subscript)
                        and isinstance(t.slice, ast.Constant)
                        and t.slice.value == "acceptance"
                    ):
                        target_hit = True
            elif isinstance(node, ast.Dict):
                # {"acceptance": {...}} nested inside a results literal
                for k, v in zip(node.keys, node.values):
                    if (
                        isinstance(k, ast.Constant)
                        and k.value == "acceptance"
                    ):
                        target_hit = True
                        value = v
            if target_hit and value is not None:
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Dict):
                        for k in sub.keys:
                            if isinstance(k, ast.Constant) and k.value == "passed":
                                acceptance_dict = True
                    elif (
                        isinstance(sub, ast.Constant) and sub.value == "passed"
                    ):
                        # dict(passed=...) or {"passed": ...} via call
                        acceptance_dict = True
                    elif isinstance(sub, ast.keyword) and sub.arg == "passed":
                        acceptance_dict = True
        if not acceptance_dict and not has_assert:
            yield Finding(
                path=ctx.path,
                line=1,
                col=0,
                rule_id=self.id,
                message=(
                    "benchmark has no acceptance gate: write an "
                    '`acceptance` dict containing "passed" into its '
                    "results (JSON-emitting benches) or assert its "
                    "floors (pytest-benchmark style) — a benchmark that "
                    "cannot fail is not a regression gate"
                ),
            )


# --------------------------------------------------------------------------
# DUP001 — no re-inlined dedup idioms
# --------------------------------------------------------------------------

#: files whose inline copies are the blessed originals
_DUP_ALLOWLIST = ("repro/graph/dedup.py",)


@register
class NoInlineDedupRule(Rule):
    id = "DUP001"
    title = "use repro.graph.dedup instead of re-inlining the idiom"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_module(*_DUP_ALLOWLIST):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_fn(ctx, node)

    def _check_fn(
        self, ctx: FileContext, fn: ast.FunctionDef
    ) -> Iterator[Finding]:
        imports = import_map(ctx.tree)
        lexsorts: List[ast.Call] = []
        first_mask = False           # x[0] = True
        bitmap_names: Set[str] = set()   # x = np.zeros(..., dtype=bool)
        bitmap_written: Set[str] = set()  # x[...] = True
        flatnonzeroed: Set[str] = set()   # np.flatnonzero(x)
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Call):
                dn = dotted_name(sub.func, imports)
                if dn == "numpy.lexsort":
                    lexsorts.append(sub)
                elif dn == "numpy.zeros":
                    for kw in sub.keywords:
                        if kw.arg == "dtype" and self._is_bool(kw.value):
                            parent = getattr(sub, "_lint_target", None)
                            if parent:
                                bitmap_names.add(parent)
                elif dn == "numpy.flatnonzero" and sub.args:
                    if isinstance(sub.args[0], ast.Name):
                        flatnonzeroed.add(sub.args[0].id)
            elif isinstance(sub, ast.Assign):
                # remember the target name for np.zeros(dtype=bool) RHS
                if isinstance(sub.value, ast.Call) and len(sub.targets) == 1:
                    t = sub.targets[0]
                    if isinstance(t, ast.Name):
                        sub.value._lint_target = t.id  # type: ignore[attr-defined]
                for t in sub.targets:
                    if (
                        isinstance(t, ast.Subscript)
                        and isinstance(sub.value, ast.Constant)
                        and sub.value.value is True
                    ):
                        base = subscript_base(t)
                        if base is not None:
                            bitmap_written.add(base)
                        if (
                            isinstance(t.slice, ast.Constant)
                            and t.slice.value == 0
                        ):
                            first_mask = True
        # idiom (a): lexsort + first-of-run boundary mask
        if lexsorts and first_mask:
            yield self.finding(
                ctx,
                lexsorts[0],
                f"`{fn.name}` re-inlines the lexsort first-of-run dedup — "
                "use repro.graph.dedup.first_of_runs (bit-identical, one "
                "audited copy)",
            )
        # idiom (b): presence bitmap + flatnonzero distinct-set
        redo = sorted(bitmap_names & bitmap_written & flatnonzeroed)
        for name in redo:
            yield self.finding(
                ctx,
                fn,
                f"`{fn.name}` re-inlines the presence-bitmap unique over "
                f"`{name}` — use repro.graph.dedup.presence_unique",
            )

    @staticmethod
    def _is_bool(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and node.id == "bool") or (
            isinstance(node, ast.Attribute) and node.attr in ("bool_", "bool")
        )


# --------------------------------------------------------------------------
# SHD001 — shadowed builtins
# --------------------------------------------------------------------------

_SHADOWABLE = {
    "list", "dict", "set", "tuple", "str", "int", "float", "bool", "bytes",
    "id", "type", "input", "filter", "map", "sum", "min", "max", "len",
    "range", "next", "iter", "open", "vars", "format", "hash", "dir", "bin",
    "all", "any", "sorted", "print", "object", "slice", "zip", "repr",
}


@register
class ShadowedBuiltinRule(Rule):
    id = "SHD001"
    title = "no shadowed builtins"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # class-body attribute assignments (`id = "RNG001"` on a rule
        # class) are accessed through the instance, not the bare name:
        # exempt direct class-body assigns, flag everything else
        class_attr_assigns: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        class_attr_assigns.add(id(stmt))
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for a in (
                    list(args.posonlyargs)
                    + list(args.args)
                    + list(args.kwonlyargs)
                ):
                    if a.arg in _SHADOWABLE:
                        yield self.finding(
                            ctx,
                            a,
                            f"parameter `{a.arg}` of `{node.name}` shadows "
                            "a builtin",
                        )
            elif isinstance(node, ast.Assign) and id(node) not in class_attr_assigns:
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id in _SHADOWABLE:
                        yield self.finding(
                            ctx,
                            t,
                            f"assignment shadows builtin `{t.id}`",
                        )
            elif isinstance(node, (ast.For, ast.comprehension)):
                t = node.target
                names = (
                    [t] if isinstance(t, ast.Name) else list(getattr(t, "elts", []))
                )
                for e in names:
                    if isinstance(e, ast.Name) and e.id in _SHADOWABLE:
                        yield self.finding(
                            ctx,
                            e,
                            f"loop variable shadows builtin `{e.id}`",
                        )
