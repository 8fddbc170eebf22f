"""Measurement utilities shared by the benchmark harness.

* :mod:`~repro.analysis.stretch` — stretch statistics of subgraphs.
* :mod:`~repro.analysis.hopcount` — hop-count statistics of
  hopset-augmented searches.
* :mod:`~repro.analysis.fitting` — log-log scaling-law fits.
* :mod:`~repro.analysis.theory` — the paper's closed-form bounds, used
  for the paper-vs-measured columns of the benchmark tables.
"""

from repro.analysis.stretch import stretch_summary, StretchSummary
from repro.analysis.hopcount import hop_reduction_summary, HopSummary
from repro.analysis.fitting import fit_power_law, PowerLawFit
from repro.analysis import theory

__all__ = [
    "stretch_summary",
    "StretchSummary",
    "hop_reduction_summary",
    "HopSummary",
    "fit_power_law",
    "PowerLawFit",
    "theory",
]
