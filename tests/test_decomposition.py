import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowregion import decomposition
from flowregion.decomposition import (
    Decomposition,
    _hat_rows,
    _leave_one_out_variances,
    _orthonormal_time_polynomials,
    _tricube,
    _window_operator,
    loess_smooth,
    stl_decompose,
    stl_feature_set,
)
from flowregion.engine import FEATURE_NAMES, FeatureConfig, extract_features
from flowregion.errors import TooShort
from flowregion.series import standardize

from conftest import ar1, daily_series, sine, white_noise


class TestLoess:
    def test_linear_input_reproduced_exactly(self):
        y = 0.7 * np.arange(200.0) - 3.0
        for span in (7, 31, 121):
            np.testing.assert_allclose(loess_smooth(y, span), y, atol=1e-8)

    def test_span_larger_than_series(self):
        y = 2.0 * np.arange(40.0) + 1.0
        np.testing.assert_allclose(loess_smooth(y, 101), y, atol=1e-8)

    def test_smooths_noise(self, rng):
        y = rng.normal(size=500)
        smoothed = loess_smooth(y, 101)
        assert smoothed.std() < 0.5 * y.std()

    @pytest.mark.parametrize("n", [2, 3, 4, 40])
    def test_span_three_returns_the_series(self, rng, n):
        # inside a 3-point window only the centre carries weight, so the fit is
        # the local mean, the centre itself; at the ends the window's line
        # passes through the two weighted points, one of them the centre
        y = rng.normal(size=n)
        np.testing.assert_allclose(loess_smooth(y, 3), y, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_points_returned_as_they_are(self, n):
        y = np.arange(float(n))
        got = loess_smooth(y, 7)
        assert got is not y and np.array_equal(got, y)

    @pytest.mark.parametrize("span", [4, 1, -1])
    def test_span_must_be_odd_and_at_least_three(self, span):
        with pytest.raises(ValueError, match="odd integer >= 3"):
            loess_smooth(np.arange(10.0), span)


def _solve_windows(y, lo, centers, q, d_max):
    """Weighted local-line fits for one batch of windows.

    Returns the fitted value at each center. Windows are index ranges
    [lo, lo + q) on the regular grid; d_max is the tricube scale per window.
    Where only the center carries weight the line is undefined, and the fit
    is the local mean.
    """
    idx = lo[:, None] + np.arange(q)[None, :]
    t = (idx - centers[:, None]).astype(np.float64)
    w = _tricube(np.abs(t) / d_max[:, None])
    yw = y[idx]
    fits = (w * yw).sum(axis=1) / w.sum(axis=1)
    line = np.count_nonzero(w, axis=1) > 1
    w, t, yw = w[line], t[line], yw[line]
    moments = [(w * t**a).sum(axis=1) for a in range(3)]
    a_mat = np.empty((w.shape[0], 2, 2))
    for a in range(2):
        for b in range(2):
            a_mat[:, a, b] = moments[a + b]
    rhs = np.stack([(w * yw).sum(axis=1), (w * t * yw).sum(axis=1)], axis=1)
    fits[line] = np.linalg.solve(a_mat, rhs[:, :, None])[:, 0, 0]
    return fits


def direct_loess(y, span):
    """Reference Loess: every window solved as its own least-squares system."""
    n = y.size
    q = min(span, n)
    half = (q - 1) // 2
    centers = np.arange(n)
    lo = np.clip(centers - half, 0, n - q)
    d_max = np.maximum(centers - lo, lo + q - 1 - centers) * (max(span, n) / n)
    chunk = max(1, 2_000_000 // q)
    return np.concatenate([
        _solve_windows(y, lo[s : s + chunk], centers[s : s + chunk], q,
                       d_max[s : s + chunk])
        for s in range(0, n, chunk)
    ])


#: Series lengths and spans that reach every path of loess_smooth: whole-series
#: windows (q == n), cached operators with an FFT interior, and spans 1,415 and
#: 2,001 (and 20,001 >= n = 3,000), too wide to cache, whose hat-matrix rows
#: are built block by block on every call.
LENGTHS_AND_SPANS = [
    (n, span) for n in (40, 3650, 12410) for span in (3, 11, 365, 731, 1415, 2001)
] + [(3000, 20001), (3650, 3651)]


class TestLoessOperator:
    @pytest.mark.parametrize("n, span", LENGTHS_AND_SPANS)
    def test_matches_direct_window_solves(self, n, span):
        rng = np.random.default_rng(n + span + 1)
        y = 10.0 + np.cumsum(rng.normal(size=n)) * 0.1
        want = direct_loess(y, span)
        got = loess_smooth(y, span)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(y))

    @pytest.mark.parametrize("n, span", LENGTHS_AND_SPANS)
    def test_lines_reproduced_on_every_path(self, n, span):
        # every fit is a local line, so a line comes back unchanged at the
        # boundaries, in the interior and in the blocked rows alike
        y = 5.0 - 0.003 * np.arange(n)
        got = loess_smooth(y, span)
        assert np.max(np.abs(got - y)) <= 1e-12 * np.max(np.abs(y))

    @pytest.mark.parametrize("n, span", LENGTHS_AND_SPANS)
    def test_reversal_commutes_with_smoothing(self, n, span):
        # the tricube weights are symmetric, so the right-hand boundary fits
        # mirror the left-hand ones
        y = np.random.default_rng(n * span).normal(size=n)
        got = loess_smooth(y[::-1], span)[::-1]
        want = loess_smooth(y, span)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(y))

    @pytest.mark.parametrize("q, span", [
        (2, 3), (3, 3), (4, 5), (7, 7), (11, 11), (40, 365), (365, 365), (731, 731),
        (40, 20001),
    ])
    def test_rows_have_unit_sum_and_reproduce_their_centre(self, q, span):
        # a local line reproduces constants (rows sum to 1) and the abscissa
        # itself (each row's first moment about its centre is 0)
        rows = _hat_rows(q, span, np.arange(q))
        t = np.arange(q)[None, :] - np.arange(q)[:, None]
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose((rows * t).sum(axis=1), 0.0, rtol=0.0, atol=1e-13 * q)

    # spans of a cached kernel (367, 731) and of one rebuilt per call (1,415);
    # lengths from one interior fit past the window to 34 years, and an odd one
    @pytest.mark.parametrize("span", [367, 731, 1415])
    @pytest.mark.parametrize("length", ["span+1", 3650, 4999, 12410])
    def test_interior_matches_direct_convolution(self, span, length):
        n = span + 1 if length == "span+1" else length
        y = standardize(sine(n, noise_sd=0.5, seed=n) + ar1(n, 0.9, seed=span))
        half = (span - 1) // 2
        kernel = _hat_rows(span, span, np.array([half]))[0]
        want = np.convolve(y, kernel[::-1], mode="valid")
        got = loess_smooth(y, span)[half : n - half]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    def test_operator_is_cached_and_read_only(self):
        y = np.random.default_rng(0).normal(size=500)
        loess_smooth(y, 101)
        before = _window_operator.cache_info()
        loess_smooth(y[:300], 101)
        after = _window_operator.cache_info()
        assert after.hits == before.hits + 1 and after.misses == before.misses
        op = _window_operator(101, 101)
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 1.0

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("q", [7, 365, 731])
    def test_rows_match_a_long_double_solve(self, q):
        # the 2 x 2 normal equations of every window, solved by Cramer's rule
        # in long double: e0' A^-1 [1, t]' W
        c = np.arange(q, dtype=np.longdouble)
        t = c[None, :] - c[:, None]
        w = (1 - np.minimum(np.abs(t) / np.maximum(c, q - 1 - c)[:, None], 1) ** 3) ** 3
        s0, s1, s2 = ((w * t**a).sum(axis=1)[:, None] for a in range(3))
        want = w * (s2 - s1 * t) / (s0 * s2 - s1 * s1)
        got = _hat_rows(q, q, np.arange(q))
        error = np.abs(got - want).max()
        assert error <= 4 * np.finfo(np.float64).eps * np.abs(want).max()


def _openblas_can_switch_to_haswell() -> bool:
    """Whether OPENBLAS_CORETYPE can pick the AVX2 and SSE3 kernel sets:
    numpy's BLAS is a DYNAMIC_ARCH OpenBLAS and the CPU has AVX2."""
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return False
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return " avx2" in fh.read()
    except OSError:
        return False


_OPERATOR_DIGESTS = """
import hashlib
from flowregion.decomposition import _window_operator
for q in (7, 365, 731):
    print(q, hashlib.sha256(_window_operator(q, q).tobytes()).hexdigest())
"""


@pytest.mark.skipif(not _openblas_can_switch_to_haswell(),
                    reason="needs a DYNAMIC_ARCH OpenBLAS and an AVX2 CPU")
def test_operator_bytes_do_not_depend_on_the_blas_kernels():
    digests = []
    for coretype in (None, "Haswell", "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        env["PYTHONPATH"] = str(Path(decomposition.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", _OPERATOR_DIGESTS], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(done.stdout)
    assert digests[0].count("\n") == 3
    assert digests[1] == digests[0] and digests[2] == digests[0]


@pytest.mark.parametrize("spans", [
    {"seasonal_span": 3}, {"trend_span": 2}, {"trend_span": 3}, {"lowpass_span": 3},
])
def test_shortest_accepted_spans_give_features(spans):
    fv = extract_features(daily_series(sine(1460, noise_sd=0.3, seed=10)),
                          FeatureConfig(**spans))
    assert np.isfinite(fv.values).all()


#: The 28 features of each conftest series shape, pinned from the per-window
#: Loess solver that the cached operators replaced.
GOLDEN_FEATURES = {
    "ar1": (0.6952750854706676, 0.9381888366042189, -0.15062291266768751, 0.046969875610402445, -0.5164490209443943, 0.27133367626407945, 0.010980445923902044, 19.0, 0.48376535040492885, 0.07321574353865662, 0.5739237432230985, 0.02059830182098056, 0.7798872843989346, 930.0, 0.9045363070318657, 11.0, 0.05221488733955702, 0.01410255919720422, 0.016858848086073186, 0.022265963206249628, 1.2827882577539956e-07, 2.758447983723556, -5.115412888880764, 0.6893818299360241, 0.8866510064602835, 0.10244632379782559, 42.0, 278.0),
    "white_noise": (-0.011167636565258003, 0.00125183542486624, -0.5071808744003036, 0.2582288031182723, -0.6717269663608163, 0.48185796517791146, -0.0017186749557065483, 1.0, 0.001071403499106776, 0.4913998850821549, 1.0446882702626032, -0.005796919736133361, 1.4221752103238798, 1851.0, 0.9937931768934735, 6.0, 0.0023650941731075165, 0.0037337349636622466, 0.014767355552914863, 0.00416498148766653, 1.1503989053372708e-07, 2.336617910935483, 1.4790905814935076, -0.021293921371499217, 0.0025201866663696016, 0.10425036124934661, 188.0, 304.0),
    "sine": (0.9260965528948528, 8.45451690283434, -0.4805693703646234, 0.2336307399309822, -0.6529154535248868, 0.44879483891457755, 0.8339601545947879, 93.0, 1.2626197986031413, 0.44650361713434483, 1.0090306279694492, 0.0037074214574047163, 0.3843806361609359, 269.0, 0.39622398275279125, 11.0, 0.0007105761340307029, 0.00015340013666784145, 0.4798595779482384, 0.0027787946206195846, 6.846704210563845e-10, -0.3906116099041329, -0.035581119748180526, 0.013715100879113429, 0.003222195543881056, 0.9324468328236037, 91.0, 275.0),
    "trend": (0.8910408321304553, 7.920776786747706, -0.5187780622788378, 0.2715212877238777, -0.6780231845291276, 0.4957384301762593, 0.631586264732263, 730.0, 1.216627594262725, 0.5057862199769525, 1.064316884734809, 0.01267701403107439, 0.4650653792655326, 449.0, 0.4593062230353322, 12.0, 9.750731551071075e-05, 0.9822625250549558, 0.265187613565121, 0.9046054661157614, 1.2944192874184265e-09, 57.0633410544882, 0.17042347116112624, -0.020092568801713385, 0.0018812179844295974, 0.1086143618473987, 154.0, 56.0),
}

GOLDEN_SERIES = {
    "ar1": lambda: ar1(3650, 0.7, seed=1),
    "white_noise": lambda: white_noise(3650, seed=2),
    "sine": lambda: sine(3650, noise_sd=0.2, seed=3),
    "trend": lambda: np.arange(3650.0) / 365.0 + white_noise(3650, seed=4),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_SERIES))
def test_features_match_golden(shape):
    fv = extract_features(daily_series(GOLDEN_SERIES[shape]()))
    np.testing.assert_allclose(fv.values, GOLDEN_FEATURES[shape], rtol=0.0, atol=1e-12)


class TestStlDecompose:
    def test_reconstruction_identity(self, rng):
        x = standardize(sine(1460, noise_sd=0.3, seed=1))
        dec = stl_decompose(x, 365)
        np.testing.assert_allclose(
            dec.trend + dec.seasonal + dec.remainder, x, atol=1e-8
        )

    def test_pure_sine_recovered(self):
        x = standardize(sine(3650, noise_sd=0.01, seed=2))
        dec = stl_decompose(x, 365)
        clean = standardize(sine(3650))
        assert np.corrcoef(dec.seasonal, clean)[0, 1] >= 0.99
        assert abs(dec.trend.mean()) <= 0.05
        assert dec.trend.std() <= 0.1

    def test_ramp_recovered_as_trend(self, rng):
        t = np.arange(3650.0)
        x = standardize(0.001 * t + 0.01 * rng.normal(size=3650))
        dec = stl_decompose(x, 365)
        assert np.corrcoef(dec.trend, t)[0, 1] >= 0.99
        assert dec.seasonal.std() <= 0.1

    def test_too_short(self):
        with pytest.raises(TooShort):
            stl_decompose(np.zeros(700), 365)

    def test_component_lengths(self, rng):
        x = rng.normal(size=1100)
        dec = stl_decompose(x, 365)
        assert dec.trend.size == dec.seasonal.size == dec.remainder.size == 1100

    def test_finite_seasonal_span_supported(self, rng):
        x = standardize(sine(400, period=50, noise_sd=0.2, seed=3))
        dec = stl_decompose(x, 50, seasonal_span=7)
        np.testing.assert_allclose(
            dec.trend + dec.seasonal + dec.remainder, x, atol=1e-8
        )


class TestStlFeatureSet:
    def test_keyed_by_feature_names(self):
        feats = stl_feature_set(standardize(sine(1460, noise_sd=0.3, seed=4)), 365)
        assert list(feats) == [n for n in FEATURE_NAMES if n in feats] and len(feats) == 9

    def test_seasonal_dominates(self):
        z = standardize(sine(3650, noise_sd=0.1, seed=5))
        feats = stl_feature_set(z, 365)
        assert feats["seasonal_strength"] >= 0.95
        assert feats["trend"] <= 0.2

    def test_trend_dominates(self, rng):
        x = 3.0 * np.arange(3650.0) / 3650.0 + 0.1 * rng.normal(size=3650)
        feats = stl_feature_set(standardize(x), 365)
        assert feats["trend"] >= 0.95
        assert feats["seasonal_strength"] <= 0.2
        assert feats["linearity"] > 0

    def test_strength_swap_between_constructions(self, rng):
        seasonal_feats = stl_feature_set(
            standardize(sine(2920, noise_sd=0.1, seed=6)), 365)
        trend_feats = stl_feature_set(
            standardize(np.arange(2920.0) + 30 * rng.normal(size=2920)), 365)
        assert seasonal_feats["seasonal_strength"] > trend_feats["seasonal_strength"]
        assert trend_feats["trend"] > seasonal_feats["trend"]

    def test_sine_peak_trough_positions(self):
        z = standardize(sine(3650, noise_sd=0.01, seed=7))
        feats = stl_feature_set(z, 365)
        assert feats["peak"] in (91, 92, 93)
        assert feats["trough"] in (273, 274, 275)

    def test_descending_linearity_negative(self, rng):
        x = -np.arange(3650.0) + 20 * rng.normal(size=3650)
        feats = stl_feature_set(standardize(x), 365)
        assert feats["linearity"] < 0

    def test_white_noise_remainder_acf(self):
        z = standardize(white_noise(3650, seed=8))
        feats = stl_feature_set(z, 365)
        assert abs(feats["e_acf1"]) <= 0.05

    def test_strengths_clamped(self, rng):
        for seed in range(5):
            z = standardize(white_noise(900, seed=seed))
            feats = stl_feature_set(z, 365)
            assert 0.0 <= feats["trend"] <= 1.0
            assert 0.0 <= feats["seasonal_strength"] <= 1.0
            assert feats["spike"] >= 0.0

    def test_peak_trough_shift_invariant(self):
        x = sine(2920, noise_sd=0.05, seed=9)
        a = stl_feature_set(standardize(x), 365)
        b = stl_feature_set(standardize(x + 100.0), 365)
        assert (a["peak"], a["trough"]) == (b["peak"], b["trough"])


class TestHelpers:
    def test_leave_one_out_variances_match_naive(self, rng):
        x = rng.normal(size=40)
        fast = _leave_one_out_variances(x)
        naive = np.array([np.delete(x, i).var(ddof=1) for i in range(x.size)])
        np.testing.assert_allclose(fast, naive, atol=1e-12)

    def test_orthonormal_polynomials(self):
        q1, q2 = _orthonormal_time_polynomials(400)
        assert abs(q1 @ q1 - 1) <= 1e-10 and abs(q2 @ q2 - 1) <= 1e-10
        assert abs(q1 @ q2) <= 1e-10
        assert q1[-1] > q1[0]  # increasing
        assert q2[0] > q2[200]  # convex
