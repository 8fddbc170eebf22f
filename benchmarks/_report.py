"""Shared result collector for the benchmark suite.

Every bench records paper-style rows here; a session-finish hook in
``benchmarks/conftest.py`` renders them as fixed-width tables to stdout
and to ``bench_results/<table>.txt`` so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import json
import os
import platform
from collections import OrderedDict
from typing import Any, Dict, List

import numpy as np
import scipy

from repro.exp import format_table

_TABLES: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "bench_results")


def record(table: str, columns: List[str], **row: Any) -> None:
    """Append one row to the named table (columns fixed by first caller)."""
    entry = _TABLES.setdefault(table, {"columns": list(columns), "rows": []})
    entry["rows"].append(dict(row))


def record_json(filename: str, payload: Dict[str, Any]) -> str:
    """Write a machine-readable result file at the repo root.

    Benches use this for perf-trajectory artifacts (e.g.
    ``BENCH_engine.json``) that future PRs regress against; written
    immediately (not at flush) so a crashed session still leaves data.
    Every payload gains a ``machine`` block (core count and library
    versions) so numbers compare across boxes.  Returns the path
    written.
    """
    payload["machine"] = {
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    path = os.path.join(REPO_ROOT, filename)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def flush() -> None:
    """Render all recorded tables to stdout and bench_results/."""
    if not _TABLES:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    print("\n" + "=" * 72)
    print("PAPER-STYLE RESULT TABLES (also written to bench_results/)")
    print("=" * 72)
    for name, entry in _TABLES.items():
        text = format_table(name, entry["columns"], entry["rows"])
        print()
        print(text)
        safe = name.replace(" ", "_").replace("/", "-")
        with open(os.path.join(RESULTS_DIR, f"{safe}.txt"), "w", encoding="utf-8") as f:
            f.write(text + "\n")
    _TABLES.clear()
