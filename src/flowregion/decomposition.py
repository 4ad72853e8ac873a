"""Additive seasonal-trend decomposition built on locally weighted regression.

The decomposition follows the classic inner-loop scheme: detrend, smooth the
cycle-subseries, low-pass filter (two moving averages of the period length, a
length-3 moving average, then a Loess pass), deseasonalize, and Loess-smooth
the trend. The loop runs exactly two passes and there is no robustness
(outer) loop, so the only Loess weights are the tricube ones. Nine of the
twenty-eight features derive from the result.

Every Loess fit is a local line (degree 1), as in STL's ``est`` step, solved
in closed form: the weighted mean plus the weighted slope times the centre's
offset from the weighted mean abscissa, with no linear-algebra solve. Where
only the centre of a window carries weight (the middle of a 3-point window)
the slope is undefined, and the fit is the local mean, as ``est`` does.

The smoother exploits the regular time grid. Each fit is a fixed linear
combination of the window's values: interior windows share one kernel, so
they collapse to a single convolution, computed as a product of real FFTs at
the power of two >= n, and the asymmetric boundary windows use hat-matrix
rows that depend only on the window length and the span. Those rows and the
kernel's spectrum are built once per process and cached; for windows too wide
to cache the rows are built block by block on every call.

No feature depends on the BLAS thread count. The Loess interior is an FFT
(numpy's pocketfft, one thread); each boundary fit is one hat-matrix row
times one window, so one thread computes each output; the hat-matrix rows
are row-wise numpy sums; and the long dot products here (``linearity``,
``curvature``, ``spike``) are numpy pairwise sums
(:func:`flowregion.series.pairwise_dot`), as are those of ``nonlinearity``
(one Gram-Schmidt sweep) and of the spectral entropy. The only BLAS calls
left in feature extraction are the boundary row products, the spectral
entropy's Daniell smoothing (2 * span + 1 terms per output, 7 by default)
and dot products of at most ten terms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dependence import acf
from .errors import DegenerateVariance, TooShort
from .series import pairwise_dot

PERIODIC = "periodic"

#: Elements of the largest cached operator (q * q, 16 MB); wider windows
#: build their hat-matrix rows in blocks of about this many elements.
_BATCH_ELEMENTS = 2_000_000

#: Passes of the inner loop (detrend, seasonal smoothing, trend smoothing).
_INNER_PASSES = 2

#: Fourier harmonics kept in the mean seasonal shape for peak and trough.
_SHAPE_HARMONICS = 2


@dataclass
class Decomposition:
    """Additive split x = trend + seasonal + remainder."""

    trend: np.ndarray
    seasonal: np.ndarray
    remainder: np.ndarray


def _next_odd(v: int) -> int:
    v = int(np.ceil(v))
    return v if v % 2 == 1 else v + 1


def _tricube(u: np.ndarray) -> np.ndarray:
    w = 1.0 - np.clip(u, 0.0, 1.0) ** 3
    return w * w * w


def _hat_rows(q: int, span: int, centers: np.ndarray) -> np.ndarray:
    """Hat-matrix rows of the local-line fits at ``centers`` of a window y[:q].

    Each fit is linear in y, and its weights depend only on the window
    length and the fitted centre: row i gives the fitted value at centre
    ``centers[i]`` as a dot product with y[:q]. The tricube scale is the
    distance to the farther window end, stretched by span / q when the span
    exceeds the window (span >= n, where the window is the whole series).

    On abscissae centred at their weighted mean, the local line at the
    centre is ``w * (1/total + t * slope)``; the slope term is 0 where only
    the centre carries weight, which leaves the local mean.
    """
    t = (np.arange(q)[None, :] - centers[:, None]).astype(np.float64)
    d_max = np.maximum(centers, q - 1 - centers) * (span / q)
    w = _tricube(np.abs(t) / d_max[:, None])
    total = np.add.reduce(w, axis=1)
    mean = np.add.reduce(w * t, axis=1) / total
    t -= mean[:, None]
    spread = np.add.reduce(w * t * t, axis=1)
    slope = np.divide(-mean, spread, out=np.zeros_like(mean), where=spread > 0.0)
    return w * (1.0 / total[:, None] + t * slope[:, None])


@functools.lru_cache(maxsize=8)
def _window_operator(q: int, span: int) -> np.ndarray:
    """Read-only hat-matrix rows of all q windows that cover y[:q].

    The rows do not depend on the data or on the series length, so they are
    built once per (q, span) and reused. With q < n, span == q and the first
    and last (q - 1) // 2 rows serve the boundary windows. With q == n every
    row is used.
    """
    op = _hat_rows(q, span, np.arange(q))
    op.flags.writeable = False
    return op


@functools.lru_cache(maxsize=8)
def _interior_spectrum(q: int, span: int, size: int) -> np.ndarray:
    """Read-only rfft, at length ``size``, of the reversed interior kernel:
    the hat-matrix row of the centre of a window of q points."""
    kernel = _hat_rows(q, span, np.array([(q - 1) // 2]))[0]
    spectrum = np.fft.rfft(kernel[::-1], size)
    spectrum.flags.writeable = False
    return spectrum


def loess_smooth(y, span: int) -> np.ndarray:
    """Locally weighted linear smoothing on a regular grid.

    Parameters
    ----------
    y : array-like
        Equally spaced observations.
    span : odd int >= 3
        Number of nearest neighbours per window. Spans larger than the series
        use every point, with the tricube scale stretched by span/n.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if span < 3 or span % 2 == 0:
        raise ValueError(f"span must be an odd integer >= 3, got {span}")
    if n < 2:
        return y.copy()
    q = min(span, n)
    half = (q - 1) // 2
    op = _window_operator(q, span) if q * q <= _BATCH_ELEMENTS else None

    def fit(lo, hi, window):
        """The fits at centres lo..hi-1 of ``window`` (y[:q] or y[-q:]); a
        window too wide to cache builds its rows a block at a time."""
        if op is not None:
            return op[lo:hi] @ window
        step = _BATCH_ELEMENTS // q
        return np.concatenate([_hat_rows(q, span, np.arange(c, min(c + step, hi))) @ window
                               for c in range(lo, hi, step)])

    if q == n:
        return fit(0, n, y)
    out = np.empty(n)
    out[:half] = fit(0, half, y[:q])
    # the interior fits are the valid part of the convolution of y with the
    # reversed kernel; a circular convolution of length >= n wraps only into
    # its first q - 1 terms
    size = 1 << (n - 1).bit_length()
    product = np.fft.rfft(y, size) * _interior_spectrum(q, span, size)
    out[half : n - half] = np.fft.irfft(product, size)[q - 1 : n]
    out[n - half :] = fit(q - half, q, y[n - q :])
    return out


def _moving_mean(a: np.ndarray, width: int) -> np.ndarray:
    csum = np.concatenate([[0.0], np.cumsum(a)])
    return (csum[width:] - csum[:-width]) / width


def _cycle_subseries(detrended, period, seasonal_span):
    """Smooth each cycle-subseries and extend one cycle at each end."""
    n = detrended.size
    extended = np.empty(n + 2 * period)
    if seasonal_span == PERIODIC:
        pos = np.arange(n) % period
        means = (np.bincount(pos, weights=detrended, minlength=period)
                 / np.bincount(pos, minlength=period))
        extended[:] = means[np.arange(n + 2 * period) % period]
    else:
        for s in range(period):
            smooth = loess_smooth(detrended[s::period], seasonal_span)
            extended[s::period] = np.concatenate([[smooth[0]], smooth, [smooth[-1]]])
    return extended


def stl_decompose(
    x: np.ndarray,
    period: int,
    seasonal_span: int | str = PERIODIC,
    trend_span: int | None = None,
    lowpass_span: int | None = None,
) -> Decomposition:
    """Decompose a standardized series into trend + seasonal + remainder.

    The default seasonal smoother is "periodic": every cycle-subseries is
    replaced by its mean. The default trend span is 2 * period + 1 and the
    low-pass span the next odd integer >= period.
    """
    n = x.size
    if n < 2 * period:
        raise TooShort(f"decomposition needs length >= {2 * period}, got {n}")
    t_span = _next_odd(trend_span) if trend_span else _next_odd(2 * period + 1)
    l_span = _next_odd(lowpass_span) if lowpass_span else _next_odd(period)

    trend = np.zeros(n)
    for _ in range(_INNER_PASSES):
        cycles = _cycle_subseries(x - trend, period, seasonal_span)
        lowpass = _moving_mean(_moving_mean(_moving_mean(cycles, period), period), 3)
        lowpass = loess_smooth(lowpass, l_span)
        seasonal = cycles[period : period + n] - lowpass
        trend = loess_smooth(x - seasonal, t_span)
    return Decomposition(trend=trend, seasonal=seasonal, remainder=x - seasonal - trend)


def _leave_one_out_variances(values: np.ndarray) -> np.ndarray:
    n = values.size
    if n < 3:
        raise TooShort("leave-one-out variances need at least three points")
    total = values.sum()
    total_sq = pairwise_dot(values, values)
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
    q1 = v1 / np.sqrt(pairwise_dot(v1, v1))
    t2 = t * t
    v2 = t2 - pairwise_dot(q0, t2) * q0 - pairwise_dot(q1, t2) * q1
    q2 = v2 / np.sqrt(pairwise_dot(v2, v2))
    return q1, q2


def _shape_positions(seasonal, period):
    """Peak and trough positions (1-based) of the mean seasonal shape.

    The per-position mean across years is extremely noisy at the day level
    (hundreds of near-tied positions around a smooth extremum), so the shape
    is projected onto its first _SHAPE_HARMONICS Fourier harmonics before the
    argmax/argmin, unless that projection is flat. Ties resolve to the
    smallest index.
    """
    n = seasonal.size
    pos = np.arange(n) % period
    shape = np.bincount(pos, weights=seasonal, minlength=period)
    shape /= np.bincount(pos, minlength=period)
    spectrum = np.fft.rfft(shape)
    spectrum[_SHAPE_HARMONICS + 1 :] = 0.0
    smoothed = np.fft.irfft(spectrum, n=period)
    if np.ptp(smoothed) > 0.0:
        shape = smoothed
    return int(np.argmax(shape)) + 1, int(np.argmin(shape)) + 1


def stl_feature_set(x: np.ndarray, period: int, **stl_options) -> dict[str, float]:
    """The nine decomposition-derived features of one standardized series,
    keyed by their names in ``FEATURE_NAMES``; ``stl_options`` are the span
    keywords of :func:`stl_decompose`."""
    dec = stl_decompose(x, period, **stl_options)
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
    linearity = pairwise_dot(q1, trend)
    curvature = pairwise_dot(q2, trend)

    rem_acf = acf(remainder, 10)
    peak, trough = _shape_positions(seasonal, period)

    return {
        "trend": float(trend_strength),
        "spike": spike,
        "linearity": linearity,
        "curvature": curvature,
        "e_acf1": float(rem_acf[0]),
        "e_acf10": float(rem_acf @ rem_acf),
        "seasonal_strength": float(seasonal_strength),
        "peak": float(peak),
        "trough": float(trough),
    }
