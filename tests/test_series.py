import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flowregion.errors import MissingData, NonFinite, TooShort, ZeroVariance
from flowregion.series import TimeSeries, difference, standardize, validate

from conftest import daily_series, white_noise

finite_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=3, max_size=60
)


class TestValidate:
    def test_gap_free_series_passes_through(self):
        ts = daily_series(white_noise(12410))
        assert validate(ts) is ts

    def test_nan_raises_missing_data(self):
        x = white_noise(800)
        x[17] = np.nan
        with pytest.raises(MissingData):
            validate(daily_series(x))

    def test_inf_raises_non_finite(self):
        x = white_noise(800)
        x[3] = np.inf
        with pytest.raises(NonFinite):
            validate(daily_series(x))

    def test_short_series_rejected(self):
        with pytest.raises(TooShort):
            validate(daily_series(white_noise(400)))  # 400 < 2 * 365


class TestStandardize:
    def test_two_point_symmetry(self):
        z = standardize([1.0, 3.0])
        np.testing.assert_allclose(z, [-0.7071, 0.7071], atol=5e-5)

    def test_constant_series_raises(self):
        with pytest.raises(ZeroVariance):
            standardize([5.0, 5.0, 5.0])

    def test_four_point_direct_formula(self):
        # mean 2.5, sample sd sqrt(5/3) ~ 1.2910
        z = standardize([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(
            z, [-1.1619, -0.3873, 0.3873, 1.1619], atol=5e-5
        )

    def test_moments(self):
        z = standardize(white_noise(999))
        assert abs(z.mean()) <= 1e-10
        assert abs(z.std(ddof=1) - 1.0) <= 1e-10

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_extreme_scales(self, scale):
        x = white_noise(3650)
        np.testing.assert_allclose(standardize(x * scale), standardize(x), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("exponent", [-1000, -3, 5, 1000])
    def test_power_of_two_scaling_is_exact(self, exponent):
        x = white_noise(999)
        np.testing.assert_array_equal(standardize(np.ldexp(x, exponent)), standardize(x))

    @given(finite_lists, st.floats(min_value=0.01, max_value=100),
           st.floats(min_value=-50, max_value=50))
    @example(xs=[0.0, 0.0, 5.960464477539063e-08], a=0.0625, b=2.0)
    def test_affine_invariance(self, xs, a, b):
        x = np.asarray(xs)
        # a * x + b rounds each value to the ulp of its magnitude, which the
        # shift b sets when a * x is small: skip draws whose spread is not
        # large against that rounding, so the rounding stays well inside atol
        if (a * x).std(ddof=1) <= 1e12 * np.spacing(np.abs(a * x).max() + abs(b)):
            return
        base = standardize(x)
        shifted = standardize(a * x + b)
        np.testing.assert_allclose(shifted, base, atol=1e-10)

    @given(finite_lists)
    def test_idempotence(self, xs):
        x = np.asarray(xs)
        if x.std(ddof=1) <= 1e-9:
            return
        once = standardize(x)
        twice = standardize(once)
        np.testing.assert_allclose(twice, once, atol=1e-10)


class TestDifference:
    def test_order_one(self):
        np.testing.assert_array_equal(difference([1, 2, 4, 7], 1), [1, 2, 3])

    def test_order_two(self):
        np.testing.assert_array_equal(difference([1, 2, 4, 7], 2), [1, 1])

    def test_ramp_collapses(self):
        np.testing.assert_array_equal(difference(np.arange(10.0), 1), np.ones(9))

    def test_too_short(self):
        with pytest.raises(TooShort):
            difference([1.0], 1)
        with pytest.raises(TooShort):
            difference([1.0, 2.0], 2)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=3, max_size=50))
    def test_second_difference_is_composition(self, xs):
        x = np.asarray(xs)
        np.testing.assert_array_equal(difference(x, 2), difference(difference(x, 1), 1))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=3, max_size=50),
           st.sampled_from([1, 2]))
    def test_length_bookkeeping(self, xs, order):
        assert difference(np.asarray(xs), order).size == len(xs) - order


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.ones((2, 2)))
    with pytest.raises(ValueError):
        TimeSeries(np.ones(10), period=1)
