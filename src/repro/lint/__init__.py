"""Project-specific static analysis: machine-checked repo invariants.

The paper's pipeline is only auditable because every run is seeded,
every backend is swap-equivalent, and every layer plumbs the same
``backend=``/``workers=`` knobs.  This package turns those
reviewer-enforced rules into AST checks that run on every commit:

>>> from repro.lint import lint_paths
>>> findings = lint_paths(["src", "benchmarks"])
>>> for f in findings:
...     print(f.render())

or from the command line::

    repro lint src benchmarks          # exit 1 on any finding
    repro lint --list-rules
    repro lint --select RNG001,DUP001 src

Suppress a finding only with a justified marker
(``# repro: noqa[RULE001]: why this is safe``); see
:mod:`repro.lint.core` for semantics and :mod:`repro.lint.rules` for
the shipped rule set.
"""

from repro.lint.core import (
    FileContext,
    Finding,
    Rule,
    all_rules,
    iter_python_files,
    lint_file,
    lint_paths,
    register,
)

__all__ = [
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "register",
]
