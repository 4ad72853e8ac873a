"""Variation, level-crossing, run-length, tiled-window and nonlinearity features."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRange, SingularDesign, TooShort
from .series import difference, pairwise_dot

#: A linear-fit residual sum of squares below this share of y'y is rounding
#: (1e-32 to 1e-28 for exact recursions), not a fit to explain.
_EXACT_FIT = 1e-20

#: A regressor whose remainder, after the sweep removes the columns before
#: it, is below this share of its own length lies in their span.
_DEPENDENT = 1e-10

#: flat_spots cuts the range of the series into this many equal-width bins.
_FLAT_SPOT_BINS = 10


def std1st_der(x: np.ndarray) -> float:
    """Sample standard deviation of the first-order differenced series."""
    if x.size < 3:
        raise TooShort("std1st_der needs at least three points")
    return float(difference(x, 1).std(ddof=1))


def crossing_points(x: np.ndarray) -> int:
    """Number of times the series crosses its median.

    Counts sign changes of the indicator x_t <= median between consecutive
    points, so the result depends only on the ordering of the values.
    """
    if x.size < 2:
        raise TooShort("crossing_points needs at least two points")
    below = x <= np.median(x)
    return int(np.count_nonzero(below[1:] != below[:-1]))


def flat_spots(x: np.ndarray) -> int:
    """Longest run of values falling in the same decile-style bin.

    The range [min, max] is cut into :data:`_FLAT_SPOT_BINS` equal-width
    intervals, the top interval closed at the maximum, and the maximum run
    length of identical bin labels is returned.
    """
    if x.size < 10:
        raise TooShort("flat_spots needs at least ten points")
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        raise DegenerateRange("flat_spots undefined when max(x) == min(x)")
    labels = np.minimum((x - lo) * (_FLAT_SPOT_BINS / (hi - lo)),
                        _FLAT_SPOT_BINS - 1).astype(np.int64)
    changes = np.flatnonzero(labels[1:] != labels[:-1])
    edges = np.concatenate([[-1], changes, [x.size - 1]])
    return int(np.diff(edges).max())


def tiled_windows(x: np.ndarray, period: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-tile means and sample variances over floor(n/period) non-overlapping
    tiles of one seasonal period each; the trailing remainder is discarded."""
    n_windows = x.size // period
    if n_windows < 2:
        raise TooShort(f"need at least 2 tiles of width {period}, got length {x.size}")
    tiles = x[: n_windows * period].reshape(n_windows, period)
    return tiles.mean(axis=1), tiles.var(axis=1, ddof=1)


def tiled_stats(x: np.ndarray, period: int) -> dict[str, float]:
    """stability = variance of tile means; lumpiness = variance of tile variances."""
    means, variances = tiled_windows(x, period)
    return {
        "stability": float(means.var(ddof=1)),
        "lumpiness": float(variances.var(ddof=1)),
    }


def nonlinearity(x: np.ndarray) -> float:
    """Neural-network-style nonlinearity statistic, scaled to be length-free.

    Fits x_t on {1, x_{t-1}, x_{t-2}} by least squares, then regresses the
    residuals on the same terms plus all second- and third-order monomials of
    (x_{t-1}, x_{t-2}). With R^2 from that auxiliary fit the chi-squared
    statistic is n * R^2; the returned value is 10 * statistic / n.

    Both fits come from one modified Gram-Schmidt sweep over the regressors
    with y carried along as the last column (Bjorck 1967). The sweep takes
    1, x_{t-1} and d = x_{t-1} - x_{t-2} first, then the seven monomials of
    degree two and three in (x_{t-1}, d): they span the same space as those in
    (x_{t-1}, x_{t-2}), but stay far from collinear for a smooth flow, where
    x_{t-2} is close to x_{t-1}. The linear residual sum of squares is that of
    y's remainder after the first three columns, and the auxiliary fit
    explains the squares of y's coefficients on the seven later ones, so R^2
    carries no cancellation. A regressor that lies in the span of those
    before it is skipped: R^2 is the projection onto the span of the design
    even when it is rank-deficient, as for a series quantised to a few levels.
    """
    n = x.size
    if n < 20:
        raise TooShort("nonlinearity needs at least twenty points")
    z1 = x[1:-1].copy()
    d = z1 - x[:-2]
    z11 = z1 * z1
    dd = d * d
    # swept in place (so z1 and y are copies), one column at a time, which
    # keeps each in cache
    regressors = [np.ones(n - 2), z1, d, z11, z1 * d, dd,
                  z11 * z1, z11 * d, z1 * dd, dd * d]
    y = x[2:].copy()
    yy = pairwise_dot(y, y)
    lengths = [np.sqrt(pairwise_dot(v, v)) for v in regressors]
    scratch = np.empty(n - 2)
    independent = 0
    explained = 0.0
    for k, v in enumerate(regressors):
        if k == 3:
            ssr0 = pairwise_dot(y, y)
            if ssr0 <= _EXACT_FIT * yy:
                # an exact linear recursion (a noiseless sine, a ramp) leaves
                # only rounding; its statistic is zero by continuity, even
                # where the lag regressors are collinear; an all-zero y
                # (ssr0 = yy = 0) is fitted exactly too
                return 0.0
            if independent < 3:
                raise SingularDesign("collinear lag regressors in the nonlinearity test")
        length = np.sqrt(pairwise_dot(v, v))
        if length <= _DEPENDENT * lengths[k]:
            continue
        q = v / length
        for w in regressors[k + 1 :]:
            _remove_component(w, q, scratch)
        coef = _remove_component(y, q, scratch)
        independent += 1
        if k >= 3:
            explained += coef * coef
    return min(10.0, 10.0 * explained / ssr0)


def _remove_component(w: np.ndarray, q: np.ndarray, scratch: np.ndarray) -> float:
    """Subtract from ``w``, in place, its component along the unit vector
    ``q``, and return that component's coefficient q'w."""
    coef = np.multiply(w, q, out=scratch).sum()
    w -= np.multiply(q, coef, out=scratch)
    return float(coef)
