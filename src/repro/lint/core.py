"""Rule registry, finding model, and the per-file analysis driver.

The framework is deliberately tiny: a rule is a named object with a
``check(ctx)`` method that yields :class:`Finding` objects for one
parsed file.  :func:`lint_paths` collects ``.py`` files, parses each
once, runs every selected rule on it, and applies suppression comments
before returning the merged, sorted finding list.

Suppressions
------------
A finding on line ``L`` is suppressed by a marker on the same line or
on the immediately preceding comment-only line::

    bad_call()  # repro: noqa[RNG001]: bench harness seeds from argv

The justification text after the colon is **required**: a bare
``# repro: noqa[RULE]`` does not suppress anything and instead raises
``LNT001`` — the marker exists so reviewers can grep every exemption
together with its reason, not as an escape hatch.
"""

from __future__ import annotations

import ast
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "register",
    "all_rules",
    "lint_file",
    "lint_paths",
    "iter_python_files",
]

#: rule-id grammar: 3 letters + 3 digits (RNG001, API001, ...)
_RULE_ID_RE = re.compile(r"^[A-Z]{3}\d{3}$")

#: suppression marker with one or more rule ids and a required reason
#: (grammar in the module docstring)
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<ids>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\]"
    r"(?::\s*(?P<why>\S.*))?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One structured lint finding: ``file:line:col rule-id message``."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: str = "error"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.rule_id} {self.message}"


@dataclass
class FileContext:
    """Everything a rule may look at for one file (parsed exactly once)."""

    path: str           # path as passed on the command line
    rel: str            # normalized posix path, for allowlist matching
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def in_module(self, *suffixes: str) -> bool:
        """True when this file IS one of ``suffixes`` (posix endswith)."""
        return any(self.rel.endswith(s) for s in suffixes)

    @property
    def is_benchmark(self) -> bool:
        base = os.path.basename(self.rel)
        return base.startswith("bench_") and base.endswith(".py")


class Rule:
    """Base class: subclass, set ``id``/``title``, implement ``check``."""

    id: str = ""
    title: str = ""
    severity: str = "error"

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)),
            rule_id=self.id,
            message=message,
            severity=self.severity,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and add to the global rule registry."""
    if not _RULE_ID_RE.match(cls.id):
        raise ValueError(f"rule id {cls.id!r} does not match LLLNNN")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> Dict[str, Rule]:
    """Registered rules by id (importing :mod:`repro.lint.rules` fills it)."""
    import repro.lint.rules  # noqa: F401  (registration side effect)

    return dict(_REGISTRY)


def _normalize(path: str) -> str:
    return os.path.abspath(path).replace(os.sep, "/")


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(
                    d for d in dirs if d not in ("__pycache__", ".git")
                )
                for f in sorted(files):
                    if f.endswith(".py"):
                        out.append(os.path.join(root, f))
        elif p.endswith(".py"):
            out.append(p)
    # stable de-dup preserving first spelling of each file
    seen = set()
    uniq = []
    for p in out:
        key = _normalize(p)
        if key not in seen:
            seen.add(key)
            uniq.append(p)
    return uniq


def _suppressions(source: str) -> Dict[int, Tuple[Tuple[str, ...], bool]]:
    """Map line -> (suppressed ids, has_justification).

    A comment-only marker line also covers the next line, so the marker
    can sit above a long statement.
    """
    out: Dict[int, Tuple[Tuple[str, ...], bool]] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(raw)
        if not m:
            continue
        ids = tuple(s.strip() for s in m.group("ids").split(","))
        justified = bool(m.group("why"))
        out[lineno] = (ids, justified)
        if raw.lstrip().startswith("#"):
            out.setdefault(lineno + 1, (ids, justified))
    return out


def _apply_suppressions(
    ctx: FileContext, findings: List[Finding]
) -> List[Finding]:
    sup = _suppressions(ctx.source)
    if not sup:
        return findings
    kept: List[Finding] = []
    for f in findings:
        entry = sup.get(f.line)
        if entry and f.rule_id in entry[0] and entry[1]:
            continue  # justified: suppressed
        kept.append(f)
    # a bare (unjustified) marker is itself a finding, whether or not
    # anything matched it: unexplained exemptions are what LNT001 bans
    for lineno, (ids, justified) in sup.items():
        if justified:
            continue
        if lineno <= len(ctx.lines) and _NOQA_RE.search(ctx.lines[lineno - 1]):
            kept.append(
                Finding(
                    path=ctx.path,
                    line=lineno,
                    col=0,
                    rule_id="LNT001",
                    message=(
                        "suppression without justification: write "
                        "`# repro: noqa[%s]: <why this is safe>`"
                        % ",".join(ids)
                    ),
                )
            )
    return kept


def lint_file(
    path: str, rules: Optional[Dict[str, Rule]] = None
) -> List[Finding]:
    """Run every (selected) rule over one file."""
    if rules is None:
        rules = all_rules()
    try:
        with tokenize.open(path) as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError, SyntaxError) as exc:
        return [Finding(path, 1, 0, "LNT000", f"cannot read file: {exc}")]
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(path, int(exc.lineno or 1), 0, "LNT000", f"syntax error: {exc.msg}")
        ]
    ctx = FileContext(
        path=path,
        rel=_normalize(path),
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )
    findings: List[Finding] = []
    for rule in rules.values():
        findings.extend(rule.check(ctx))
    return sorted(_apply_suppressions(ctx, findings))


def lint_paths(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint files/directories; returns the merged sorted finding list.

    ``select`` restricts to the named rule ids.
    """
    rules = all_rules()
    if select:
        unknown = sorted(set(select) - set(rules))
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
        rules = {k: v for k, v in rules.items() if k in select}
    out: List[Finding] = []
    for path in iter_python_files(paths):
        out.extend(lint_file(path, rules))
    return sorted(out)
