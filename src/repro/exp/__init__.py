"""Experiment harness: seeded repetition, aggregation, table rendering.

One :class:`~repro.exp.harness.Experiment` per paper artifact; the
:mod:`~repro.exp.experiments` registry maps experiment ids (``fig1-unw``,
``lemma22``, ...) to runnable small-scale closures.  Benchmarks and
examples print their tables with :mod:`~repro.exp.tables`, and
:mod:`~repro.exp.report_writer` renders the benchmarks'
``bench_results/<table>.txt`` files as one markdown report.
"""

from repro.exp.harness import Experiment, Trial, run_trials, aggregate
from repro.exp.tables import Table, format_table

__all__ = ["Experiment", "Trial", "run_trials", "aggregate", "Table", "format_table"]
