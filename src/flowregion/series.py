"""The daily series container and the preprocessing all features share.

Every feature function takes the standardized values as one float64 array
``x`` (see :func:`standardize`), plus the seasonal ``period`` where the
feature needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingData, NonFinite, TooShort, ZeroVariance

DEFAULT_PERIOD = 365


@dataclass
class TimeSeries:
    """A gap-free, regularly sampled daily sequence.

    ``values`` are one observation per day after leap-day removal, so the
    seasonal cycle length is exactly ``period`` (365 here). Completeness is
    enforced at ingestion; :func:`validate` re-checks it cheaply.
    """

    values: np.ndarray
    period: int = DEFAULT_PERIOD

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("series values must be one-dimensional")
        if self.period < 2:
            raise ValueError(f"period must be >= 2, got {self.period}")


def validate(series: TimeSeries) -> TimeSeries:
    """Return ``series`` unchanged if it is complete, finite and long enough.

    Raises MissingData for NaNs, NonFinite for infinities and TooShort when
    fewer than two full seasonal cycles are available.
    """
    x = series.values
    if np.isnan(x).any():
        raise MissingData(f"series contains {int(np.isnan(x).sum())} NaN value(s)")
    if np.isinf(x).any():
        raise NonFinite("series contains non-finite values")
    if x.size < 2 * series.period:
        raise TooShort(
            f"length {x.size} < 2 x period ({2 * series.period}); "
            "seasonal features need at least two full cycles"
        )
    return series


def standardize(values) -> np.ndarray:
    """(x - mean) / sd with the sample (n-1) standard deviation.

    x is first scaled by the power of two that brings max|x| into [0.5, 1),
    so the moments neither underflow nor overflow at extreme scales. The
    scaling is exact, so it leaves the result of any other series unchanged.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size < 2:
        raise TooShort("standardization needs at least two points")
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    sd = x.std(ddof=1)
    if sd == 0.0:
        raise ZeroVariance("constant series cannot be standardized")
    return (x - x.mean()) / sd


def pairwise_dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a_i * b_i by numpy's pairwise summation of the products.

    Unlike ``a @ b`` this never calls BLAS, so the sum is added in one fixed
    order whatever the BLAS library or its thread count, and its rounding
    error grows with log(n) rather than n.
    """
    return float(np.multiply(a, b).sum())


def difference(values, order: int = 1) -> np.ndarray:
    """Order-1 or order-2 differencing: y_t = x_{t+1} - x_t, applied ``order`` times."""
    if order not in (1, 2):
        raise ValueError(f"difference order must be 1 or 2, got {order}")
    x = np.asarray(values, dtype=np.float64)
    if x.size <= order:
        raise TooShort(f"length {x.size} too short for order-{order} differencing")
    return np.diff(x, n=order)
