import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowregion.dependence import (
    acf,
    acf_feature_set,
    pacf,
    pacf_feature_set,
    pacf_from_acf,
    spectral_entropy,
)
from flowregion.errors import LagTooLarge, TooShort, ZeroVariance
from flowregion.series import difference, standardize

from conftest import ar1, sine, white_noise


def yule_walker_pacf(r):
    """Independent oracle: solve the Toeplitz system per lag."""
    out = np.empty(r.size)
    rho = np.concatenate([[1.0], r])
    for k in range(1, r.size + 1):
        toeplitz = np.array([[rho[abs(i - j)] for j in range(k)] for i in range(k)])
        phi = np.linalg.solve(toeplitz, r[:k])
        out[k - 1] = phi[-1]
    return out


class TestAcf:
    def test_alternating_closed_form(self):
        x = np.tile([1.0, -1.0], 5)  # n = 10
        r = acf(x, 1)
        assert r[0] == pytest.approx(-0.9, abs=1e-12)

    def test_matches_direct_formula(self, rng):
        x = rng.normal(size=200)
        r = acf(x, 12)
        xc = x - x.mean()
        for k in range(1, 13):
            expected = (xc[:-k] @ xc[k:]) / (xc @ xc)
            assert r[k - 1] == pytest.approx(expected, abs=1e-12)

    def test_white_noise_lag1_small(self):
        r = acf(white_noise(5000, seed=3), 1)
        assert abs(r[0]) <= 0.05

    def test_bounds_and_errors(self, rng):
        x = rng.normal(size=50)
        assert np.all(np.abs(acf(x, 30)) <= 1.0)
        with pytest.raises(LagTooLarge):
            acf(x, 50)
        with pytest.raises(ZeroVariance):
            acf(np.ones(50), 3)

    def test_time_reversal_invariance(self, rng):
        x = rng.normal(size=120)
        np.testing.assert_allclose(acf(x, 20), acf(x[::-1], 20), atol=1e-10)

    @given(st.integers(0, 2**32 - 1), st.floats(min_value=0.01, max_value=50),
           st.floats(min_value=-20, max_value=20))
    @settings(max_examples=25)
    def test_shift_scale_invariance(self, seed, a, b):
        x = np.random.default_rng(seed).normal(size=80)
        np.testing.assert_allclose(acf(a * x + b, 10), acf(x, 10), atol=1e-9)


class TestPacf:
    def test_base_case_equals_acf(self, rng):
        x = rng.normal(size=300)
        assert pacf(x, 8)[0] == acf(x, 8)[0]

    def test_ar1_theoretical_shape(self):
        phi = pacf(ar1(5000, 0.8, seed=11), 5)
        assert phi[0] == pytest.approx(0.8, abs=0.03)
        assert np.all(np.abs(phi[1:]) <= 0.05)

    def test_matches_yule_walker_oracle(self, rng):
        for trial in range(30):
            x = rng.normal(size=rng.integers(40, 200))
            r = acf(x, 20)
            np.testing.assert_allclose(
                pacf_from_acf(r), yule_walker_pacf(r), atol=1e-8
            )


class TestAcfFeatureSet:
    def test_alternating_firstzero(self):
        x = np.tile([1.0, -1.0], 400)
        feats, _ = acf_feature_set(standardize(x), 10)
        assert feats["firstzero_ac"] == 1

    def test_sine_seasonal_structure(self):
        feats, _ = acf_feature_set(standardize(sine(3650)), 365)
        # biased estimator shrinks lag-365 by about (n - 365) / n = 0.9
        assert feats["seas_acf1"] == pytest.approx(0.9, abs=0.02)
        assert 90 <= feats["firstzero_ac"] <= 94

    def test_white_noise_acf10(self):
        feats, _ = acf_feature_set(standardize(white_noise(5000, seed=5)), 365)
        assert feats["x_acf10"] <= 0.01

    def test_scan_cap_on_positive_acf(self):
        # strong slow trend keeps the ACF positive through the scan horizon
        feats, _ = acf_feature_set(standardize(np.arange(3650.0)), 365)
        assert feats["firstzero_ac"] == 730

    def test_x_acf10_dominates_x_acf1_squared(self, rng):
        feats, _ = acf_feature_set(standardize(rng.normal(size=900)), 365)
        assert feats["x_acf10"] >= feats["x_acf1"] ** 2 - 1e-12
        assert 0 <= feats["x_acf10"] <= 10
        assert -1 <= feats["x_acf1"] <= 1


def pacf_features(z, period=365):
    return pacf_feature_set(acf_feature_set(z, period)[1], period)


class TestPacfFeatureSet:
    def test_ar1_pacf5(self):
        feats = pacf_features(standardize(ar1(5000, 0.8, seed=21)))
        assert feats["x_pacf5"] == pytest.approx(0.64, abs=0.05)

    def test_white_noise_pacf5(self):
        feats = pacf_features(standardize(white_noise(5000, seed=9)))
        assert feats["x_pacf5"] <= 0.01

    @pytest.mark.parametrize("n, period", [(900, 365), (3650, 365), (12410, 365),
                                           (400, 12), (60, 7)])
    def test_reused_acf_prefix_is_bit_identical(self, n, period):
        x = ar1(n, 0.6, seed=n) + sine(n, period=period, seed=period)
        z = standardize(x)
        _, acfs = acf_feature_set(z, period)
        assert acfs[0].size >= period
        # the ACFs at the shortest lag counts the PACF features read
        shortest = acf(z, period), acf(difference(z, 1), 5), acf(difference(z, 2), 5)
        assert pacf_feature_set(acfs, period) == pacf_feature_set(shortest, period)

    def test_lower_bound_by_first_partial(self, rng):
        z = standardize(rng.normal(size=1200))
        feats = pacf_features(z)
        r1 = acf(z, 1)[0]
        assert feats["x_pacf5"] >= r1**2 - 1e-12


class TestSpectralEntropy:
    def test_white_noise_near_one(self):
        assert spectral_entropy(white_noise(5000, seed=2)) >= 0.95

    def test_sine_concentrated(self):
        assert spectral_entropy(sine(3650)) <= 0.5

    def test_two_tone_exceeds_single_tone(self):
        t = np.arange(1, 2049.0)
        one = np.sin(2 * np.pi * t / 64)
        two = one + np.sin(2 * np.pi * t / 16)
        assert spectral_entropy(standardize(two)) > spectral_entropy(standardize(one))

    def test_bounds(self, rng):
        for _ in range(10):
            x = rng.normal(size=rng.integers(16, 400))
            assert 0.0 <= spectral_entropy(x) <= 1.0

    def test_too_short(self):
        with pytest.raises(TooShort):
            spectral_entropy(np.arange(10.0))

    def test_daniell_span_checks(self):
        x = white_noise(1095, seed=3)  # 547 periodogram ordinates
        with pytest.raises(TooShort):
            spectral_entropy(x, smooth_spans=(547,))
        with pytest.raises(ValueError):
            spectral_entropy(x, smooth_spans=(0,))
        assert 0.0 <= spectral_entropy(x, smooth_spans=(546,)) <= 1.0

    def test_shift_scale_invariance(self, rng):
        x = rng.normal(size=512)
        assert spectral_entropy(3.0 * x + 7.0) == pytest.approx(
            spectral_entropy(x), abs=1e-10
        )
