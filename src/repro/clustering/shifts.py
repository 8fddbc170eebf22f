"""Exponential shift sampling for EST clustering.

Lemma 2.1's diameter bound comes from the tail of the max shift:
``Pr[delta_max > k log(n) / beta] <= n^(1-k)``.  :func:`sample_shifts`
draws the shifts, and
:func:`repro.analysis.theory.lemma21_radius_bound` is that envelope.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.rng import SeedLike, resolve_rng


def sample_shifts(n: int, beta: float, seed: SeedLike = None) -> np.ndarray:
    """Draw ``n`` i.i.d. Exp(beta) shifts (mean 1/beta)."""
    if beta <= 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    rng = resolve_rng(seed)
    return rng.exponential(scale=1.0 / beta, size=n)

