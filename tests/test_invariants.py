"""Repository invariants, checked on the AST of ``src/`` and ``benchmarks/``.

RNG001  all randomness flows through :mod:`repro.rng`
RNG002  no seed derives from the wall clock or the PID
BEN001  every ``bench_*`` file carries an acceptance gate
DUP001  the dedup idioms live only in ``repro/graph/dedup.py``

Each file is parsed once and gets one import map; a check is a plain
function of that parse yielding ``(line, message)`` pairs.  Every check
has a good/bad fixture pair under ``tests/lint_fixtures/``: the bad
file must fire it, the good file must stay silent.  The gate,
``test_tree_lints_clean``, asserts the tree has no finding and prints
each one as ``path:line RULE message``.
"""

from __future__ import annotations

import ast
import os
import tokenize
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS)
FIXTURES = os.path.join(TESTS, "lint_fixtures")

#: one check's hit: (line, message)
Hit = Tuple[int, str]


class Module:
    """One parsed file: its nodes in ``ast.walk`` order and its imports."""

    def __init__(self, path: str) -> None:
        self.posix = os.path.abspath(path).replace(os.sep, "/")
        with tokenize.open(path) as fh:
            self.source = fh.read()
        self.nodes = list(ast.walk(ast.parse(self.source, filename=path)))
        self.imports = import_map(self.nodes)

    def is_file(self, suffix: str) -> bool:
        return self.posix.endswith(suffix)

    @property
    def is_benchmark(self) -> bool:
        base = os.path.basename(self.posix)
        return base.startswith("bench_") and base.endswith(".py")


def import_map(nodes: Sequence[ast.AST]) -> Dict[str, str]:
    """Name bound by an import -> its dotted origin.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
    import default_rng as drg`` maps ``drg -> numpy.random.default_rng``.
    """
    out: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name.split(".")[0]
                out[a.asname or root] = a.name if a.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for a in node.names:
                if a.name != "*":
                    out[a.asname or a.name] = f"{node.module}.{a.name}"
    return out


def dotted_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve an ``Attribute``/``Name`` chain to a dotted origin."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name) or cur.id not in imports:
        return None
    parts.append(imports[cur.id])
    return ".".join(reversed(parts))


# ---------------------------------------------------------------- RNG001

#: entropy-creating numpy.random members; Generator, SeedSequence, PCG64
#: and the like are types (checkpoint restore builds them from saved state)
NP_RANDOM_BANNED = {
    "default_rng", "seed", "rand", "randn", "randint", "random",
    "random_sample", "ranf", "sample", "choice", "shuffle", "permutation",
    "bytes", "standard_normal", "uniform", "normal", "exponential",
    "poisson", "RandomState",
}

STDLIB_RANDOM = (
    "stdlib `random` is nondeterministic across processes; use "
    "repro.rng.resolve_rng/spawn"
)


def rng001(mod: Module) -> Iterator[Hit]:
    if mod.is_file("repro/rng.py"):
        return
    for node in mod.nodes:
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "random" or a.name.startswith("random."):
                    yield node.lineno, STDLIB_RANDOM
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == "random" or module.startswith("random."):
                yield node.lineno, STDLIB_RANDOM
            elif module == "numpy.random":
                for a in node.names:
                    if a.name in NP_RANDOM_BANNED:
                        yield node.lineno, (
                            f"import of numpy.random.{a.name}: seed policy "
                            "lives in repro.rng (resolve_rng/spawn_seeds)"
                        )
        elif isinstance(node, ast.Attribute):
            name = dotted_name(node, mod.imports)
            if (
                name is not None
                and name.startswith("numpy.random.")
                and name.rsplit(".", 1)[-1] in NP_RANDOM_BANNED
            ):
                yield node.lineno, (
                    f"{name.replace('numpy', 'np', 1)} outside repro/rng.py: "
                    "route it through repro.rng.resolve_rng/spawn_seeds"
                )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if mod.imports.get(node.func.id) in (
                "numpy.random.default_rng", "numpy.random.seed"
            ):
                yield node.lineno, (
                    f"bare {node.func.id}() outside repro/rng.py: use "
                    "repro.rng.resolve_rng"
                )


# ---------------------------------------------------------------- RNG002

ENTROPY_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "os.getpid", "os.urandom",
    "uuid.uuid1", "uuid.uuid4", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.now", "datetime.utcnow",
}

CLOCK_SEED = (
    "seed derived from wall clock/PID breaks replayability: take an "
    "explicit seed and resolve it with repro.rng"
)


def rng002(mod: Module) -> Iterator[Hit]:
    def clock_calls(expr: ast.AST) -> Iterator[Hit]:
        for sub in ast.walk(expr):
            if (
                isinstance(sub, ast.Call)
                and dotted_name(sub.func, mod.imports) in ENTROPY_CALLS
            ):
                yield sub.lineno, CLOCK_SEED

    for node in mod.nodes:
        if isinstance(node, ast.Call):
            callee = (dotted_name(node.func, mod.imports) or "").rsplit(".", 1)[-1]
            for kw in node.keywords:
                if kw.arg and "seed" in kw.arg.lower():
                    yield from clock_calls(kw.value)
            if "rng" in callee.lower() or "seed" in callee.lower():
                for arg in node.args:
                    yield from clock_calls(arg)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and "seed" in t.id.lower() for t in node.targets
        ):
            yield from clock_calls(node.value)


# ---------------------------------------------------------------- BEN001


def _holds_passed(value: ast.AST) -> bool:
    """``value`` builds a dict with a ``passed`` key (literal or call)."""
    for sub in ast.walk(value):
        if isinstance(sub, ast.Dict):
            if any(isinstance(k, ast.Constant) and k.value == "passed" for k in sub.keys):
                return True
        elif isinstance(sub, ast.Constant) and sub.value == "passed":
            return True
        elif isinstance(sub, ast.keyword) and sub.arg == "passed":
            return True
    return False


def ben001(mod: Module) -> Iterator[Hit]:
    if not mod.is_benchmark:
        return
    if any(isinstance(n, ast.Assert) for n in mod.nodes):
        return
    for node in mod.nodes:
        # acceptance = {...}, results["acceptance"] = {...}, or an
        # "acceptance" key inside a results literal (the last one wins)
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign) and any(
            (isinstance(t, ast.Name) and t.id == "acceptance")
            or (
                isinstance(t, ast.Subscript)
                and isinstance(t.slice, ast.Constant)
                and t.slice.value == "acceptance"
            )
            for t in node.targets
        ):
            value = node.value
        elif isinstance(node, ast.Dict):
            for k, v in zip(node.keys, node.values):
                if isinstance(k, ast.Constant) and k.value == "acceptance":
                    value = v
        if value is not None and _holds_passed(value):
            return
    yield 1, (
        'benchmark has no acceptance gate: write an `acceptance` dict holding '
        '"passed" into its results, or assert its floors — a benchmark that '
        "cannot fail is not a regression gate"
    )


# ---------------------------------------------------------------- DUP001


def _is_bool(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "bool") or (
        isinstance(node, ast.Attribute) and node.attr in ("bool_", "bool")
    )


def dup001(mod: Module) -> Iterator[Hit]:
    # both idioms call np.lexsort or np.flatnonzero, so a file whose
    # text names neither cannot hold one
    if mod.is_file("repro/graph/dedup.py") or not (
        "lexsort" in mod.source or "flatnonzero" in mod.source
    ):
        return
    for fn in mod.nodes:
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _inline_dedups(fn, mod.imports)


def _inline_dedups(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, imports: Dict[str, str]
) -> Iterator[Hit]:
    lexsorts: List[ast.Call] = []
    first_mask = False  # x[0] = True
    bitmaps: Set[str] = set()  # x = np.zeros(..., dtype=bool)
    written: Set[str] = set()  # x[...] = True
    scanned: Set[str] = set()  # np.flatnonzero(x)
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Call):
            name = dotted_name(sub.func, imports)
            if name == "numpy.lexsort":
                lexsorts.append(sub)
            elif name == "numpy.flatnonzero" and sub.args:
                if isinstance(sub.args[0], ast.Name):
                    scanned.add(sub.args[0].id)
        elif isinstance(sub, ast.Assign):
            value = sub.value
            if (
                len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(value, ast.Call)
                and dotted_name(value.func, imports) == "numpy.zeros"
                and any(kw.arg == "dtype" and _is_bool(kw.value) for kw in value.keywords)
            ):
                bitmaps.add(sub.targets[0].id)
            if isinstance(value, ast.Constant) and value.value is True:
                for t in sub.targets:
                    if not isinstance(t, ast.Subscript):
                        continue
                    base: ast.AST = t
                    while isinstance(base, ast.Subscript):
                        base = base.value
                    if isinstance(base, ast.Name):
                        written.add(base.id)
                    if isinstance(t.slice, ast.Constant) and t.slice.value == 0:
                        first_mask = True
    # idiom (a): lexsort + first-of-run boundary mask
    if lexsorts and first_mask:
        yield lexsorts[0].lineno, (
            f"`{fn.name}` re-inlines the lexsort first-of-run dedup — use "
            "repro.graph.dedup.first_of_runs"
        )
    # idiom (b): presence bitmap + flatnonzero distinct set
    for bitmap in sorted(bitmaps & written & scanned):
        yield fn.lineno, (
            f"`{fn.name}` re-inlines the presence-bitmap unique over "
            f"`{bitmap}` — use repro.graph.dedup.presence_unique"
        )


CHECKS: Dict[str, Callable[[Module], Iterator[Hit]]] = {
    "RNG001": rng001,
    "RNG002": rng002,
    "BEN001": ben001,
    "DUP001": dup001,
}


def python_files(roots: Sequence[str]) -> List[str]:
    """Every ``.py`` file under ``roots``, in sorted walk order."""
    out: List[str] = []
    for root in roots:
        for here, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            out += [os.path.join(here, f) for f in sorted(files) if f.endswith(".py")]
    return out


def findings(roots: Sequence[str]) -> List[Tuple[str, int, str, str]]:
    """Sorted ``(path, line, rule, message)`` for every file under ``roots``."""
    out = []
    for path in python_files(roots):
        mod = Module(path)
        for rule, check in CHECKS.items():
            out += [(path, line, rule, msg) for line, msg in check(mod)]
    return sorted(out)


# ----------------------------------------------------------------- tests

#: rule -> (good fixture, bad fixture), relative to FIXTURES
PAIRS = {
    "RNG001": ("rng001_good.py", "rng001_bad.py"),
    "RNG002": ("rng002_good.py", "rng002_bad.py"),
    "BEN001": ("bench_gate_good.py", "bench_gate_bad.py"),
    "DUP001": ("dup001_good.py", "dup001_bad.py"),
}


def _hits(rule: str, fixture: str) -> List[Hit]:
    return list(CHECKS[rule](Module(os.path.join(FIXTURES, fixture))))


def test_every_shipped_rule_has_a_fixture_pair():
    assert set(PAIRS) == set(CHECKS)


@pytest.mark.parametrize("rule", sorted(PAIRS))
def test_bad_fixture_fires(rule):
    hits = _hits(rule, PAIRS[rule][1])
    assert hits, f"{rule} bad fixture produced no findings"
    assert all(line >= 1 for line, _ in hits)


@pytest.mark.parametrize("rule", sorted(PAIRS))
def test_good_fixture_is_silent(rule):
    assert _hits(rule, PAIRS[rule][0]) == []


def test_bad_fixture_finding_counts():
    # pin the exact detection surface of the denser fixtures
    assert len(_hits("DUP001", PAIRS["DUP001"][1])) == 2  # both idioms
    assert len(_hits("RNG002", PAIRS["RNG002"][1])) == 2  # kwarg + assign


def test_tree_lints_clean():
    found = findings([os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "benchmarks")])
    assert found == [], "\n".join(
        f"{os.path.relpath(path, REPO_ROOT)}:{line} {rule} {msg}"
        for path, line, rule, msg in found
    )
