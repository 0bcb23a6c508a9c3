"""Small statistics helpers for the Monte Carlo estimators.

Batch means: split a stream of correlated-ish draws into a fixed number of
contiguous batches and report the spread of the batch averages; with
independent draws this is simply a coarse but robust standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_BATCHES = 20

# Student-t quantiles, frozen so the estimators need no scipy at runtime.
_T_ONE_SIDED_95 = {
    1: 6.3138, 2: 2.9200, 3: 2.3534,
    4: 2.1318, 9: 1.8331, 14: 1.7613, 19: 1.7291, 24: 1.7109,
    29: 1.6991, 39: 1.6849, 49: 1.6766, 99: 1.6604,
}
_T_TWO_SIDED_95 = {
    1: 12.7062, 2: 4.3027, 3: 3.1824,
    4: 2.7764, 9: 2.2622, 14: 2.1448, 19: 2.0930, 24: 2.0639,
    29: 2.0452, 39: 2.0227, 49: 2.0096, 99: 1.9842,
}


def t_quantile_95(df: int, one_sided: bool = False) -> float:
    """95% Student-t quantile at the nearest tabulated df (conservative)."""
    table = _T_ONE_SIDED_95 if one_sided else _T_TWO_SIDED_95
    keys = sorted(table)
    best = keys[0]
    for k in keys:
        if k <= df:
            best = k
    return table[best]


@dataclass(frozen=True)
class EstimatedValue:
    """A Monte Carlo estimate with its batch-means standard error."""

    value: float
    stderr: float
    n_samples: int
    n_batches: int = DEFAULT_BATCHES

    def __float__(self) -> float:
        return self.value


def batch_means(values, n_batches: int = DEFAULT_BATCHES) -> EstimatedValue:
    """Mean and batch-means standard error of a sample stream."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    n = arr.size
    if n == 0:
        raise ValueError("no samples")
    b = min(n_batches, n)
    means = np.array([chunk.mean() for chunk in np.array_split(arr, b)])
    mean = float(arr.mean())
    if b < 2:
        return EstimatedValue(mean, math.inf, n, b)
    stderr = float(means.std(ddof=1) / math.sqrt(b))
    return EstimatedValue(mean, stderr, n, b)


def slope(x, y) -> float:
    """Least-squares slope of y against x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        raise ValueError("degenerate abscissae")
    return float(xc @ (y - y.mean()) / denom)


def slope_with_ci(x, y) -> tuple:
    """Least-squares slope and its 95% confidence half-width."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if n < 3:
        raise ValueError("need at least three points for a confidence interval")
    beta = slope(x, y)
    xc = x - x.mean()
    resid = (y - y.mean()) - beta * xc
    s2 = float(resid @ resid) / (n - 2)
    se = math.sqrt(s2 / float(xc @ xc))
    return beta, t_quantile_95(n - 2) * se
