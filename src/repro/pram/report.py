"""Empirical scaling-law fits over measured ledgers.

The benchmark harness compares *measured* work/depth against the
paper's asymptotic claims by fitting a power law ``y = c * x^a`` on
log-log data; :func:`fit_scaling_exponent` returns the exponent ``a``,
which is what "shape holds" means for Figures 1 and 2.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def fit_scaling_exponent(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit of ``log y = a log x + log c``; returns (a, c).

    Zero/negative values are clipped out before the fit; at least two
    distinct x values are required.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    ok = (x > 0) & (y > 0)
    x, y = x[ok], y[ok]
    if np.unique(x).shape[0] < 2:
        raise ValueError("need at least two distinct positive x values")
    a, logc = np.polyfit(np.log(x), np.log(y), 1)
    return float(a), float(np.exp(logc))
