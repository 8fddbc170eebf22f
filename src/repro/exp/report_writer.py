"""Assemble a markdown report from bench_results/ tables.

After ``pytest benchmarks/ --benchmark-only`` has populated
``bench_results/*.txt``, this module stitches them into one markdown
document, tables only, with no interpretation.  Usable as a library or
via

    python -m repro.exp.report_writer bench_results report.md
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional


def collect_tables(results_dir: str) -> List[tuple[str, str]]:
    """Read every ``.txt`` table in ``results_dir`` as (name, body)."""
    if not os.path.isdir(results_dir):
        raise FileNotFoundError(f"no results directory {results_dir!r}")
    out = []
    for fname in sorted(os.listdir(results_dir)):
        if not fname.endswith(".txt"):
            continue
        path = os.path.join(results_dir, fname)
        with open(path, "r", encoding="utf-8") as f:
            body = f.read().rstrip()
        name = fname[:-4].replace("_", " ")
        out.append((name, body))
    return out


def render_markdown(tables: List[tuple[str, str]], title: str = "Benchmark results") -> str:
    """Render collected tables as a markdown document (tables fenced)."""
    lines = [f"# {title}", ""]
    lines.append(
        "Regenerate with `pytest benchmarks/ --benchmark-only`; "
        "seeds are fixed, so the numbers below are deterministic."
    )
    for name, body in tables:
        lines.append("")
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```")
        lines.append(body)
        lines.append("```")
    return "\n".join(lines) + "\n"


def write_report(results_dir: str, out_path: str, title: str = "Benchmark results") -> int:
    """Collect + render + write; returns the number of tables included."""
    tables = collect_tables(results_dir)
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(render_markdown(tables, title=title))
    return len(tables)


def main(argv: Optional[List[str]] = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if len(args) != 2:
        print("usage: python -m repro.exp.report_writer <results_dir> <out.md>", file=sys.stderr)
        return 2
    n = write_report(args[0], args[1])
    print(f"wrote {args[1]} with {n} tables")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
