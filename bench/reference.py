"""Independent reference computations the benchmark checks outputs against.

Nothing here calls the program: series are parsed from the raw CSV text, the
autocorrelations come from an FFT instead of lagged dot products, and ranks
are counted by brute-force comparison instead of sorting.
"""

from __future__ import annotations

import numpy as np

#: Features with a closed form that :func:`closed_form_features` recomputes.
CLOSED_FORM = (
    "x_acf1", "x_acf10", "diff1_acf1", "diff1_acf10", "diff2_acf1",
    "diff2_acf10", "seas_acf1", "firstzero_ac", "std1st_der",
    "crossing_points", "flat_spots", "stability", "lumpiness",
)
COUNT_FEATURES = ("firstzero_ac", "crossing_points", "flat_spots")


def parse_series(path, first: str, last: str) -> np.ndarray:
    """Values of a ``date,value`` file between two ISO dates, Feb 29 dropped."""
    with open(path, encoding="utf-8") as fh:
        return parse_series_text(fh.read(), first, last)


def parse_series_text(text: str, first: str, last: str) -> np.ndarray:
    out = []
    for line in text.split("\n")[1:]:
        if not line:
            continue
        day, value = line.split(",")
        if first <= day <= last and not day.endswith("-02-29"):
            out.append(float(value))
    return np.array(out)


def acf_fft(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelations r_1..r_max_lag via the FFT."""
    xc = x - x.mean()
    size = 1 << int(np.ceil(np.log2(2 * xc.size)))
    spectrum = np.fft.rfft(xc, n=size)
    acov = np.fft.irfft(spectrum * spectrum.conj(), n=size)[: max_lag + 1]
    return acov[1:] / acov[0]


def longest_run(labels: np.ndarray) -> int:
    best = run = 1
    for a, b in zip(labels[:-1].tolist(), labels[1:].tolist()):
        run = run + 1 if a == b else 1
        best = max(best, run)
    return best


def closed_form_features(values: np.ndarray, period: int = 365) -> dict[str, float]:
    """The closed-form features of one raw series (standardized here)."""
    z = (values - values.mean()) / values.std(ddof=1)
    n = z.size
    cap = min(n - 1, 2 * period)
    r = acf_fft(z, max(cap, period, 10))
    r1 = acf_fft(np.diff(z), 10)
    r2 = acf_fft(np.diff(z, n=2), 10)
    nonpos = np.flatnonzero(r[:cap] <= 0.0)
    below = z <= np.median(z)
    lo, hi = z.min(), z.max()
    labels = np.minimum((z - lo) * (10 / (hi - lo)), 9).astype(np.int64)
    tiles = z[: (n // period) * period].reshape(-1, period)
    return {
        "x_acf1": r[0],
        "x_acf10": float(np.sum(r[:10] ** 2)),
        "diff1_acf1": r1[0],
        "diff1_acf10": float(np.sum(r1 ** 2)),
        "diff2_acf1": r2[0],
        "diff2_acf10": float(np.sum(r2 ** 2)),
        "seas_acf1": r[period - 1],
        "firstzero_ac": float(nonpos[0] + 1 if nonpos.size else cap),
        "std1st_der": float(np.diff(z).std(ddof=1)),
        "crossing_points": float(np.sum(below[1:] ^ below[:-1])),
        "flat_spots": float(longest_run(labels)),
        "stability": float(tiles.mean(axis=1).var(ddof=1)),
        "lumpiness": float(tiles.var(axis=1, ddof=1).var(ddof=1)),
        "_acf": r,
    }


def feature_mismatches(label: str, got, values: np.ndarray, tol: float = 1e-9,
                       period: int = 365) -> list[str]:
    """Compare a program feature mapping against the reference for one series.

    ``got`` maps feature name to value. Counts must match exactly, except that
    ``firstzero_ac`` may differ where the disputed autocorrelation is within
    1e-12 of zero (the two ACF methods may round to opposite signs there).
    """
    ref = closed_form_features(values, period)
    bad = []
    for name in CLOSED_FORM:
        a, b = float(got[name]), float(ref[name])
        if name in COUNT_FEATURES:
            ok = a == b
            if not ok and name == "firstzero_ac":
                lag = int(min(a, b))
                ok = abs(ref["_acf"][lag - 1]) < 1e-12
        else:
            ok = abs(a - b) <= tol
        if not ok:
            bad.append(f"{label}: {name} = {a!r}, reference {b!r}")
    return bad


def brute_ranks(v: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) by counting, O(n^2)."""
    less = (v[None, :] < v[:, None]).sum(axis=1)
    equal = (v[None, :] == v[:, None]).sum(axis=1)
    return less + (equal + 1) / 2.0


def spearman_brute(x: np.ndarray, y: np.ndarray) -> float:
    rx = brute_ranks(x)
    ry = brute_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float(np.sum(rx * ry) / np.sqrt(np.sum(rx * rx) * np.sum(ry * ry)))


def pooled_rmse(predicted, observed) -> float:
    d = np.asarray(predicted, dtype=np.float64) - np.asarray(observed, dtype=np.float64)
    return float(np.sqrt(np.mean(d * d)))


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
