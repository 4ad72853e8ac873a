"""Autocorrelation, partial autocorrelation and spectral-entropy features.

Thirteen of the twenty-eight features live here: the ACF family on the raw
and differenced series, the PACF family, the seasonal lag-365 statistics and
the spectral entropy of the periodogram. :func:`acf_feature_set` takes the
standardized series as a float64 array ``x`` and its seasonal ``period``,
:func:`pacf_feature_set` the ACFs it returns and the period, and
:func:`spectral_entropy` takes ``x`` alone.

The lag sums of the ACF and the Durbin-Levinson recursion of the PACF run in
the compiled kernel ``_acf.c``, loaded by :func:`flowregion.native.kernel`
on first use. Each of their sums adds its terms in one fixed order, so these
features do not depend on the BLAS library or its thread count.
"""

from __future__ import annotations

import ctypes

import numpy as np

from . import native
from .errors import LagTooLarge, NumericalSingularity, TooShort, ZeroVariance
from .series import difference, pairwise_dot

#: lags added at a time while the ACF is searched for its first zero crossing
_ACF_BLOCK = 32

#: the first-zero search stops at this many seasonal periods
_FIRSTZERO_SCAN_FACTOR = 2


def _lag_sums(xc: np.ndarray, first: int, last: int) -> np.ndarray:
    """sum_t xc[t] * xc[t+k] at lags k = first..last (last < xc.size), in
    chunks of 128 terms: see ``lag_sums`` in ``_acf.c``."""
    xc = np.ascontiguousarray(xc, dtype=np.float64)
    if xc.ndim != 1 or not 0 <= first <= last < xc.size:
        raise ValueError(f"lags {first}..{last} out of range for {xc.shape} values")
    out = np.empty(last - first + 1)
    native.kernel().lag_sums(xc.ctypes.data, xc.size, first, last, out.ctypes.data)
    return out


def _autocorrelations(x: np.ndarray, max_lag: int) -> tuple[np.ndarray, np.ndarray, float]:
    """r_1..r_max_lag of x, its centred values and their sum of squares."""
    n = x.size
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if max_lag >= n:
        raise LagTooLarge(f"max_lag {max_lag} >= series length {n}")
    xc = x - x.mean()
    sums = _lag_sums(xc, 0, max_lag)
    denom = float(sums[0])
    if denom <= 0.0:
        raise ZeroVariance("autocorrelation undefined for a constant series")
    return sums[1:] / denom, xc, denom


def acf(x, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation at lags 1..max_lag.

    r_k = sum_{t<=n-k} (x_t - m)(x_{t+k} - m) / sum_t (x_t - m)^2.

    The divide-by-n convention keeps the sequence positive semidefinite, so
    |r_k| <= 1 and the Durbin-Levinson recursion in :func:`pacf` is stable.
    """
    return _autocorrelations(np.asarray(x, dtype=np.float64), max_lag)[0]


def pacf_from_acf(r: np.ndarray) -> np.ndarray:
    """Durbin-Levinson recursion mapping autocorrelations to partials."""
    r = np.ascontiguousarray(r, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise ValueError(f"need a non-empty 1-d autocorrelation sequence, got shape {r.shape}")
    phi = np.empty(r.size)
    work = np.empty(r.size)
    den = ctypes.c_double()
    order = native.kernel().durbin_levinson(r.ctypes.data, r.size, phi.ctypes.data,
                                            work.ctypes.data, ctypes.byref(den))
    if order:
        raise NumericalSingularity(
            f"Durbin-Levinson denominator {den.value:.3e} at order {order}"
        )
    return phi


def pacf(x, max_lag: int) -> np.ndarray:
    """Sample PACF at lags 1..max_lag; phi_1 equals r_1 exactly."""
    return pacf_from_acf(acf(x, max_lag))


def acf_feature_set(x: np.ndarray, period: int) -> tuple[dict[str, float], tuple]:
    """The eight autocorrelation features of one standardized series, and
    its ACFs for :func:`pacf_feature_set`.

    ``firstzero_ac`` scans to min(n-1, 2 * period) and returns that
    bound when the ACF never crosses zero, which keeps the feature total.
    The result is ``(features, acfs)``: ``acfs`` holds the ACF of ``x`` at
    lags 1..m for some m >= max(period, 10), and those of its first and
    second differences at lags 1..10.
    """
    n = x.size
    if n < 2 * period + 2:
        raise TooShort(f"need length >= {2 * period + 2} for the ACF feature set, got {n}")
    cap = min(n - 1, _FIRSTZERO_SCAN_FACTOR * period)
    r, xc, denom = _autocorrelations(x, max(period, 10))
    if r.size < cap and not (r <= 0.0).any():
        # lags past the first non-positive one are never read: extend block
        # by block towards the cap only until one appears
        blocks, lags = [r], r.size
        while lags < cap and not (blocks[-1] <= 0.0).any():
            last = min(cap, lags + _ACF_BLOCK)
            blocks.append(_lag_sums(xc, lags + 1, last) / denom)
            lags = last
        r = np.concatenate(blocks)
    d1 = difference(x, 1)
    d2 = difference(x, 2)
    r1 = acf(d1, 10)
    r2 = acf(d2, 10)
    nonpos = np.flatnonzero(r[:cap] <= 0.0)
    firstzero = int(nonpos[0]) + 1 if nonpos.size else cap
    features = {
        "x_acf1": float(r[0]),
        "x_acf10": float(r[:10] @ r[:10]),
        "diff1_acf1": float(r1[0]),
        "diff1_acf10": float(r1 @ r1),
        "diff2_acf1": float(r2[0]),
        "diff2_acf10": float(r2 @ r2),
        "seas_acf1": float(r[period - 1]),
        "firstzero_ac": float(firstzero),
    }
    return features, (r, r1, r2)


def pacf_feature_set(acfs, period: int) -> dict[str, float]:
    """The four partial-autocorrelation features of one standardized series.

    ``acfs`` holds the ACFs of the series (at lags 1..m for some
    m >= period) and of its first and second differences (at lags 1..m' for
    some m' >= 5), as :func:`acf_feature_set` returns them. Each r_k is the
    same fixed-order sum at any maximum lag, so the result does not depend
    on m or m'.
    """
    r, r1, r2 = acfs
    phi = pacf_from_acf(r[:period])
    phi1 = pacf_from_acf(r1[:5])
    phi2 = pacf_from_acf(r2[:5])
    return {
        "x_pacf5": float(phi[:5] @ phi[:5]),
        "diff1x_pacf5": float(phi1 @ phi1),
        "diff2x_pacf5": float(phi2 @ phi2),
        "seas_pacf": float(phi[period - 1]),
    }


def _modified_daniell(values: np.ndarray, span: int) -> np.ndarray:
    """One modified-Daniell smoothing pass with reflection at the ends.

    A span below 1 is a caller error (ValueError); a span of at least the
    number of ordinates is a series too short for it (TooShort).
    """
    if span < 1:
        raise ValueError(f"Daniell span must be >= 1, got {span}")
    if span >= values.size:
        raise TooShort(f"Daniell span {span} needs more than {values.size} ordinates")
    kernel = np.full(2 * span + 1, 1.0 / (2 * span))
    kernel[0] = kernel[-1] = 0.5 / (2 * span)
    padded = np.concatenate([values[span:0:-1], values, values[-2 : -span - 2 : -1]])
    return np.convolve(padded, kernel, mode="valid")


def spectral_entropy(x: np.ndarray, smooth_spans: tuple[int, ...] = (3, 3)) -> float:
    """Normalized Shannon entropy of the estimated spectral density, in [0, 1].

    The periodogram is taken at the Fourier frequencies in (0, pi], smoothed
    with successive modified-Daniell kernels (``smooth_spans``; pass an empty
    tuple for the raw periodogram), normalized to sum to one, and the entropy
    is divided by log of the number of frequencies.
    """
    n = x.size
    if n < 16:
        raise TooShort(f"spectral entropy needs length >= 16, got {n}")
    xc = x - x.mean()
    if not np.any(xc):
        raise ZeroVariance("spectral entropy undefined for a constant series")
    pgram = np.abs(np.fft.rfft(xc)[1:]) ** 2  # drop the zero frequency
    for span in smooth_spans or ():
        pgram = _modified_daniell(pgram, span)
    probs = pgram / pgram.sum()
    probs = probs[probs > 0.0]
    # a flat spectrum has entropy log(size) exactly; rounding must not lift
    # the ratio above 1
    return min(1.0, -pairwise_dot(probs, np.log(probs)) / float(np.log(pgram.size)))
