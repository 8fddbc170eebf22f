"""Table rendering and named workloads for the benchmarks and examples.

Benchmarks and examples print their paper-style tables with
:mod:`~repro.exp.tables`; :mod:`~repro.exp.workloads` names the graph
families the workload-generality bench sweeps.
"""

from repro.exp.tables import Table, format_table

__all__ = ["Table", "format_table"]
