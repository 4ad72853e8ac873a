"""Additive seasonal-trend decomposition built on locally weighted regression.

The decomposition follows the classic inner-loop scheme: detrend, smooth the
cycle-subseries, low-pass filter (two moving averages of the period length, a
length-3 moving average, then a Loess pass), deseasonalize, and Loess-smooth
the trend; the loop runs a fixed number of iterations. Robustness (outer)
iterations are supported but default to zero. Nine of the twenty-eight
features derive from the result.

The Loess smoother exploits the regular time grid. Without robustness weights
each fit is a fixed linear combination of the window's values: interior
windows share one kernel, so they collapse to a single convolution, and the
asymmetric boundary windows use hat-matrix rows that depend only on the
window length and degree, built once per process and cached. Windows too
wide for a cached operator, and every window when robustness weights are in
play, are solved as small batched weighted least-squares systems.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dependence import acf
from .errors import DegenerateVariance, SingularFit, TooShort
from .series import StandardizedSeries

STL_FEATURES = (
    "trend", "spike", "linearity", "curvature", "e_acf1", "e_acf10",
    "seasonal_strength", "peak", "trough",
)

PERIODIC = "periodic"

#: Elements of one batch of solved windows, and the largest cached operator
#: (q * q elements, 16 MB): wider windows are solved batch by batch instead.
_BATCH_ELEMENTS = 2_000_000


@dataclass
class Decomposition:
    """Additive split x = trend + seasonal + remainder."""

    trend: np.ndarray
    seasonal: np.ndarray
    remainder: np.ndarray
    period: int


@dataclass
class StlFeatureSet:
    trend_strength: float
    seasonal_strength: float
    spike: float
    linearity: float
    curvature: float
    e_acf1: float
    e_acf10: float
    peak: int
    trough: int

    def as_dict(self) -> dict[str, float]:
        return {
            "trend": self.trend_strength,
            "spike": self.spike,
            "linearity": self.linearity,
            "curvature": self.curvature,
            "e_acf1": self.e_acf1,
            "e_acf10": self.e_acf10,
            "seasonal_strength": self.seasonal_strength,
            "peak": float(self.peak),
            "trough": float(self.trough),
        }


def _next_odd(v: int) -> int:
    v = int(np.ceil(v))
    return v if v % 2 == 1 else v + 1


def _tricube(u: np.ndarray) -> np.ndarray:
    w = 1.0 - np.clip(u, 0.0, 1.0) ** 3
    return w * w * w


def _solve_windows(y, lo, centers, q, d_max, degree, robustness_weights):
    """Weighted local-polynomial fits for one batch of windows.

    Returns the fitted value at each center. Windows are index ranges
    [lo, lo + q) on the regular grid; d_max is the tricube scale per window.
    """
    offsets = np.arange(q)
    idx = lo[:, None] + offsets[None, :]
    t = idx - centers[:, None]
    scale = np.where(d_max > 0, d_max, 1.0)[:, None]
    w = _tricube(np.abs(t) / scale)
    if robustness_weights is not None:
        w = w * robustness_weights[idx]
    wsum = w.sum(axis=1)
    if np.any(wsum <= 0.0):
        raise SingularFit("all weights vanished inside a local regression window")
    yw = y[idx]
    if degree == 0:
        return (w * yw).sum(axis=1) / wsum
    tf = t.astype(np.float64)
    powers = [np.ones_like(tf)]
    for _ in range(2 * degree):
        powers.append(powers[-1] * tf)
    moments = [(w * p).sum(axis=1) for p in powers]
    rhs = np.stack(
        [(w * powers[a] * yw).sum(axis=1) for a in range(degree + 1)], axis=1
    )
    a_mat = np.empty((lo.size, degree + 1, degree + 1))
    for a in range(degree + 1):
        for b in range(degree + 1):
            a_mat[:, a, b] = moments[a + b]
    try:
        coefs = np.linalg.solve(a_mat, rhs[:, :, None])
    except np.linalg.LinAlgError as exc:
        raise SingularFit(f"singular local regression system: {exc}") from exc
    return coefs[:, 0, 0]


@functools.lru_cache(maxsize=8)
def _window_operator(q: int, span: int, degree: int) -> np.ndarray:
    """Read-only hat-matrix rows of the q windows that cover y[:q].

    Without robustness weights each Loess fit is linear in y, and the weights
    of a window depend only on its length, the fitted centre and the degree:
    row c gives the fitted value at centre c of y[:q] as a dot product. The
    rows do not depend on the data or on the series length, so they are built
    once per (q, span, degree) and reused. With q < n, span == q: the first
    and last (q - 1) // 2 rows serve the boundary windows and the middle row
    is the interior convolution kernel. With q == n (span >= n) every window
    is the whole series and the tricube scale is stretched by span / q.
    """
    centers = np.arange(q)
    t = (centers[None, :] - centers[:, None]).astype(np.float64)
    d_max = np.maximum(centers, q - 1 - centers) * (span / q)
    w = _tricube(np.abs(t) / np.where(d_max > 0, d_max, 1.0)[:, None])
    if np.any(w.sum(axis=1) <= 0.0):
        raise SingularFit("all weights vanished inside a local regression window")
    weighted_powers = [w]  # w * t**a
    for _ in range(2 * degree):
        weighted_powers.append(weighted_powers[-1] * t)
    moments = np.stack([p.sum(axis=1) for p in weighted_powers], axis=1)
    a_mat = moments[:, np.add.outer(np.arange(degree + 1), np.arange(degree + 1))]
    e0 = np.zeros((q, degree + 1, 1))
    e0[:, 0] = 1.0
    try:
        g = np.linalg.solve(a_mat, e0)[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise SingularFit(f"singular local regression system: {exc}") from exc
    # the systems are symmetric, so e0' A^-1 X'W = (A^-1 e0)' X'W
    op = sum(g[:, a, None] * weighted_powers[a] for a in range(degree + 1))
    op.flags.writeable = False
    return op


def loess_smooth(y, span: int, degree: int = 1, robustness_weights=None) -> np.ndarray:
    """Locally weighted polynomial smoothing on a regular grid.

    Parameters
    ----------
    y : array-like
        Equally spaced observations.
    span : odd positive int
        Number of nearest neighbours per window. Spans larger than the series
        use every point, with the tricube scale stretched by span/n.
    degree : {0, 1, 2}
        Local polynomial degree.
    robustness_weights : array-like, optional
        Extra per-point weights multiplied into the tricube weights.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if span < 1 or span % 2 == 0:
        raise ValueError(f"span must be an odd positive integer, got {span}")
    if degree not in (0, 1, 2):
        raise ValueError(f"degree must be 0, 1 or 2, got {degree}")
    if span < degree + 1:
        raise ValueError(f"span {span} too small for degree {degree}")
    if n == 0:
        return y.copy()
    q = min(span, n)
    if q == 1:
        return y.copy()
    half = (q - 1) // 2

    if robustness_weights is None and q * q <= _BATCH_ELEMENTS:
        op = _window_operator(q, span, degree)
        if q == n:
            return op @ y
        out = np.empty(n)
        out[:half] = op[:half] @ y[:q]
        out[half : n - half] = np.convolve(y, op[half][::-1], mode="valid")
        out[n - half :] = op[q - half :] @ y[n - q :]
        return out

    rw = None
    if robustness_weights is not None:
        rw = np.asarray(robustness_weights, dtype=np.float64)
        if rw.shape != y.shape:
            raise ValueError("robustness weights must match the series length")
    centers = np.arange(n)
    lo = np.clip(centers - half, 0, n - q)
    d_max = np.maximum(centers - lo, lo + q - 1 - centers).astype(np.float64)
    if span > n:
        d_max = d_max * (span / n)
    out = np.empty(n)
    chunk = max(1, _BATCH_ELEMENTS // q)
    for start in range(0, n, chunk):
        piece = centers[start : start + chunk]
        out[piece] = _solve_windows(y, lo[piece], piece, q, d_max[piece], degree, rw)
    return out


def _moving_mean(a: np.ndarray, width: int) -> np.ndarray:
    csum = np.concatenate([[0.0], np.cumsum(a)])
    return (csum[width:] - csum[:-width]) / width


def _cycle_subseries(detrended, period, seasonal_span, weights):
    """Smooth each cycle-subseries and extend one cycle at each end."""
    n = detrended.size
    extended = np.empty(n + 2 * period)
    if seasonal_span == PERIODIC:
        pos = np.arange(n) % period
        w = weights if weights is not None else np.ones(n)
        wsum = np.bincount(pos, weights=w, minlength=period)
        vsum = np.bincount(pos, weights=w * detrended, minlength=period)
        fallback = np.bincount(pos, weights=detrended, minlength=period)
        counts = np.bincount(pos, minlength=period)
        means = np.where(wsum > 0, vsum / np.where(wsum > 0, wsum, 1.0),
                         fallback / counts)
        extended[:] = means[np.arange(n + 2 * period) % period]
    else:
        for s in range(period):
            sub = detrended[s::period]
            w_sub = weights[s::period] if weights is not None else None
            smooth = loess_smooth(sub, seasonal_span, degree=1,
                                  robustness_weights=w_sub)
            extended[s::period] = np.concatenate([[smooth[0]], smooth, [smooth[-1]]])
    return extended


def _bisquare_weights(remainder: np.ndarray) -> np.ndarray:
    h = 6.0 * np.median(np.abs(remainder))
    if h <= 0.0:
        return np.ones_like(remainder)
    u = np.clip(np.abs(remainder) / h, 0.0, 1.0)
    return (1.0 - u * u) ** 2


def stl_decompose(
    z: StandardizedSeries,
    seasonal_span: int | str = PERIODIC,
    trend_span: int | None = None,
    lowpass_span: int | None = None,
    inner_iterations: int = 2,
    outer_iterations: int = 0,
) -> Decomposition:
    """Decompose a standardized series into trend + seasonal + remainder.

    The default seasonal smoother is "periodic": every cycle-subseries is
    replaced by its (robustness-weighted) mean. The default trend span is
    2 * period + 1 and the low-pass span the next odd integer >= period.
    """
    x = z.values
    period = z.period
    n = x.size
    if n < 2 * period:
        raise TooShort(f"decomposition needs length >= {2 * period}, got {n}")
    t_span = _next_odd(trend_span) if trend_span else _next_odd(2 * period + 1)
    l_span = _next_odd(lowpass_span) if lowpass_span else _next_odd(period)

    weights = None
    trend = np.zeros(n)
    seasonal = np.zeros(n)
    for outer in range(outer_iterations + 1):
        for _ in range(max(1, inner_iterations)):
            detrended = x - trend
            cycles = _cycle_subseries(detrended, period, seasonal_span, weights)
            lowpass = _moving_mean(_moving_mean(_moving_mean(cycles, period), period), 3)
            lowpass = loess_smooth(lowpass, l_span, degree=1)
            seasonal = cycles[period : period + n] - lowpass
            trend = loess_smooth(x - seasonal, t_span, degree=1,
                                 robustness_weights=weights)
        remainder = x - seasonal - trend
        if outer < outer_iterations:
            weights = _bisquare_weights(remainder)
    return Decomposition(trend=trend, seasonal=seasonal, remainder=remainder,
                         period=period)


def _leave_one_out_variances(values: np.ndarray) -> np.ndarray:
    n = values.size
    if n < 3:
        raise TooShort("leave-one-out variances need at least three points")
    total = values.sum()
    total_sq = values @ values
    rest = total - values
    return (total_sq - values * values - rest * rest / (n - 1)) / (n - 2)


def _orthonormal_time_polynomials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree-1 and degree-2 orthonormal regressors over t = 1..n.

    Built by Gram-Schmidt on {1, t, t^2}; the linear regressor increases with
    t and the quadratic one is convex, which pins the coefficient signs.
    """
    t = np.arange(1.0, n + 1.0)
    q0 = np.full(n, 1.0 / np.sqrt(n))
    v1 = t - t.mean()
    q1 = v1 / np.linalg.norm(v1)
    t2 = t * t
    v2 = t2 - (q0 @ t2) * q0 - (q1 @ t2) * q1
    q2 = v2 / np.linalg.norm(v2)
    return q1, q2


def _shape_positions(seasonal, period, harmonics):
    """Peak and trough positions (1-based) of the mean seasonal shape.

    The per-position mean across years is extremely noisy at the day level
    (hundreds of near-tied positions around a smooth extremum), so the shape
    is projected onto its first ``harmonics`` Fourier harmonics before the
    argmax/argmin; pass 0 to use the raw shape. Ties resolve to the smallest
    index.
    """
    n = seasonal.size
    pos = np.arange(n) % period
    shape = np.bincount(pos, weights=seasonal, minlength=period)
    shape /= np.bincount(pos, minlength=period)
    if harmonics > 0:
        spectrum = np.fft.rfft(shape)
        spectrum[harmonics + 1 :] = 0.0
        smoothed = np.fft.irfft(spectrum, n=period)
        if np.ptp(smoothed) > 0.0:
            shape = smoothed
    return int(np.argmax(shape)) + 1, int(np.argmin(shape)) + 1


def stl_feature_set(
    z: StandardizedSeries, shape_harmonics: int = 2, **stl_options
) -> StlFeatureSet:
    """The nine decomposition-derived features of one standardized series."""
    dec = stl_decompose(z, **stl_options)
    trend, seasonal, remainder = dec.trend, dec.seasonal, dec.remainder
    n = remainder.size

    var_rem = remainder.var(ddof=1)
    var_detrended = (trend + remainder).var(ddof=1)
    var_deseason = (seasonal + remainder).var(ddof=1)
    if var_detrended <= 1e-30 or var_deseason <= 1e-30:
        raise DegenerateVariance("variance ratio undefined for this decomposition")
    trend_strength = max(0.0, 1.0 - var_rem / var_detrended)
    seasonal_strength = max(0.0, 1.0 - var_rem / var_deseason)

    spike = float(_leave_one_out_variances(remainder).var(ddof=1))
    q1, q2 = _orthonormal_time_polynomials(n)
    linearity = float(q1 @ trend)
    curvature = float(q2 @ trend)

    rem_acf = acf(remainder, 10)
    peak, trough = _shape_positions(seasonal, dec.period, shape_harmonics)

    return StlFeatureSet(
        trend_strength=float(trend_strength),
        seasonal_strength=float(seasonal_strength),
        spike=spike,
        linearity=linearity,
        curvature=curvature,
        e_acf1=float(rem_acf[0]),
        e_acf10=float(rem_acf @ rem_acf),
        peak=peak,
        trough=trough,
    )
