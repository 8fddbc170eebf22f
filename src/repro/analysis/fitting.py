"""Log-log power-law fits for size/work/depth scaling claims."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class PowerLawFit:
    """``y ≈ c * x^exponent`` with the fit's R² on log-log axes."""

    exponent: float
    constant: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.constant * (x ** self.exponent)


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Least-squares fit of ``log y = a log x + log c`` and its R² in
    log space.

    Points with a non-positive x or y are dropped before the fit; at
    least two distinct x values must remain (``ValueError`` otherwise).
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    ok = (x > 0) & (y > 0)
    x, y = x[ok], y[ok]
    if np.unique(x).shape[0] < 2:
        raise ValueError("need at least two distinct positive x values")
    lx, ly = np.log(x), np.log(y)
    a, logc = np.polyfit(lx, ly, 1)
    ss_res = float(np.sum((ly - (a * lx + logc)) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return PowerLawFit(exponent=float(a), constant=float(np.exp(logc)), r_squared=r2)
