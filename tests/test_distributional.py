import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowregion.distributional import (
    crossing_points,
    flat_spots,
    nonlinearity,
    std1st_der,
    tiled_stats,
    tiled_windows,
)
from flowregion.errors import DegenerateRange, SingularDesign, TooShort
from flowregion.series import standardize

import nonlinearity_oracle as oracle
from conftest import ar1, sine, white_noise


def brute_force_crossings(x):
    m = np.median(x)
    count = 0
    for a, b in zip(x[:-1], x[1:]):
        if (a <= m) != (b <= m):
            count += 1
    return count


def projected_nonlinearity(x):
    """10 * R^2 of the auxiliary fit, by explicit pseudo-inverse projections.

    The cutoff sits far above rounding: a rank-deficient design keeps singular
    values near 1e-15, which pinv's default cutoff can count as rank.
    """
    y, z1, z2 = x[2:], x[1:-1], x[:-2]
    ones = np.ones_like(y)
    linear = np.column_stack([ones, z1, z2])
    resid = y - linear @ (np.linalg.pinv(linear, rcond=1e-10) @ y)
    aux = np.column_stack([ones, z1, z2, z1 * z1, z1 * z2, z2 * z2,
                           z1 ** 3, z1 * z1 * z2, z1 * z2 * z2, z2 ** 3])
    resid2 = resid - aux @ (np.linalg.pinv(aux, rcond=1e-10) @ resid)
    return 10.0 * (1.0 - (resid2 @ resid2) / (resid @ resid))


def reservoir_release(n, seed):
    """Daily release of a reservoir filled by routed intermittent rain: a
    smooth, strongly autocorrelated flow."""
    rng = np.random.default_rng(seed)
    rain = np.where(rng.random(n) < 0.3, rng.gamma(0.7, 6.0, size=n), 0.0)
    inflow = (np.convolve(rain, np.exp(-np.arange(60) / 15.0))[:n]
              + 5.0 + sine(n, amplitude=3.0))
    storage, release = 100.0, np.empty(n)
    for t in range(n):
        storage += inflow[t]
        release[t] = min(storage, 0.02 * storage + 4.0)
        storage -= release[t]
    return release


#: 34-year series of the three analysed variables
NONLINEARITY_SERIES = {
    "temperature": lambda n: 10.0 + sine(n, amplitude=12.0) + 2.5 * ar1(n, 0.7, seed=7),
    "intermittent-precipitation": lambda n: np.where(
        np.random.default_rng(8).random(n) < 0.3,
        np.random.default_rng(9).gamma(0.7, 6.0, size=n), 0.0),
    "reservoir-flow": lambda n: reservoir_release(n, seed=10),
}


def brute_force_longest_run(labels):
    best, run = 1, 1
    for a, b in zip(labels[:-1], labels[1:]):
        run = run + 1 if a == b else 1
        best = max(best, run)
    return best


class TestStd1stDer:
    def test_ramp_is_zero(self):
        z = standardize(np.arange(100.0))
        assert std1st_der(z) <= 1e-10

    def test_white_noise_sqrt_two(self):
        z = standardize(white_noise(5000, seed=1))
        assert std1st_der(z) == pytest.approx(np.sqrt(2.0), abs=0.05)

    def test_ar1_variance_formula(self):
        # Var(x_{t+1} - x_t) = 2 (1 - phi) for a unit-variance AR(1)
        z = standardize(ar1(5000, 0.8, seed=4))
        assert std1st_der(z) == pytest.approx(np.sqrt(2 * (1 - 0.8)), abs=0.05)


class TestCrossingPoints:
    def test_alternating(self):
        assert crossing_points(standardize(np.tile([1.0, -1.0], 5))) == 9

    def test_monotone_ramp(self):
        z = standardize(np.arange(100.0))
        assert crossing_points(z) == 1

    def test_matches_brute_force_on_permutation(self, rng):
        x = rng.permutation(np.arange(1.0, 101.0))
        z = standardize(x)
        assert crossing_points(z) == brute_force_crossings(z)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_monotone_transform_invariance(self, seed):
        x = np.random.default_rng(seed).normal(size=60)
        a = crossing_points(x)
        b = crossing_points(np.exp(x))
        assert a == b

    def test_range(self, rng):
        x = rng.normal(size=40)
        assert 0 <= crossing_points(x) <= 39


class TestFlatSpots:
    def test_ramp_buckets_of_ten(self):
        z = np.arange(1.0, 101.0)
        assert flat_spots(z) == 10

    def test_extreme_alternation(self):
        z = np.tile([0.0, 9.99], 20)
        assert flat_spots(z) == 1

    def test_two_level_run(self):
        z = np.concatenate([np.zeros(50), np.ones(50)])
        assert flat_spots(z) == 50

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            flat_spots(np.zeros(100))

    def test_matches_run_length_oracle(self, rng):
        x = rng.normal(size=500)
        lo, hi = x.min(), x.max()
        labels = np.minimum(((x - lo) / (hi - lo) * 10).astype(int), 9)
        assert flat_spots(x) == brute_force_longest_run(labels)

    def test_in_range(self, rng):
        x = rng.normal(size=64)
        assert 1 <= flat_spots(x) <= 64


class TestTiledStats:
    def test_two_level_series(self):
        x = np.concatenate([-np.ones(365), np.ones(365)])
        stats = tiled_stats(standardize(x), 365)
        assert stats["stability"] == pytest.approx(2.0, abs=0.1)
        assert stats["lumpiness"] <= 1e-10

    def test_white_noise_stability(self):
        z = standardize(white_noise(36500, seed=8))
        assert tiled_stats(z, 365)["stability"] <= 0.02

    def test_two_window_definition(self, rng):
        x = rng.normal(size=100)
        stats = tiled_stats(x, 50)
        halves = np.array([x[:50].mean(), x[50:].mean()])
        assert stats["stability"] == pytest.approx(halves.var(ddof=1), abs=1e-12)

    def test_trailing_window_discarded(self, rng):
        x = rng.normal(size=103)
        full = tiled_stats(x, 25)
        truncated = tiled_stats(x[:100], 25)
        assert full == truncated

    def test_nonnegative(self, rng):
        stats = tiled_stats(rng.normal(size=120), 20)
        assert stats["stability"] >= 0 and stats["lumpiness"] >= 0

    def test_window_bookkeeping(self, rng):
        means, _ = tiled_windows(rng.normal(size=107), 20)
        assert means.size == 5
        with pytest.raises(TooShort):
            tiled_windows(rng.normal(size=30), 20)


class TestNonlinearity:
    def test_linear_ar2_is_small(self, rng):
        n = 5000
        x = np.empty(n)
        x[:2] = rng.normal(size=2)
        eps = rng.normal(size=n)
        for t in range(2, n):
            x[t] = 0.5 * x[t - 1] - 0.3 * x[t - 2] + eps[t]
        assert nonlinearity(standardize(x)) <= 0.05

    def test_quadratic_map_much_larger(self, rng):
        n = 5000
        lin = np.empty(n)
        lin[:2] = rng.normal(size=2)
        eps = rng.normal(size=n)
        for t in range(2, n):
            lin[t] = 0.5 * lin[t - 1] - 0.3 * lin[t - 2] + eps[t]
        quad = np.empty(n)
        quad[0] = 0.0
        noise = 0.1 * rng.normal(size=n)
        for t in range(1, n):
            quad[t] = 0.5 * quad[t - 1] ** 2 - 0.3 + noise[t]
        v_lin = nonlinearity(standardize(lin))
        v_quad = nonlinearity(standardize(quad))
        assert v_quad >= 10 * v_lin

    def test_nonnegative(self, rng):
        assert nonlinearity(rng.normal(size=200)) >= 0.0

    def test_singular_design(self, rng):
        # y = x[2:] is all zero: the linear terms fit it exactly
        assert nonlinearity(np.zeros(50)) == 0.0
        # a two-level series spans only 1, z1, z2 and z1*z2 of the ten
        # monomials; R^2 is that of the projection onto their span
        binary = standardize((rng.random(400) < 0.5).astype(float))
        value = nonlinearity(binary)
        assert np.isfinite(value) and 0.0 <= value <= 10.0
        assert value == pytest.approx(projected_nonlinearity(binary), rel=0, abs=1e-12)
        # collinear lag regressors that the linear terms do not fit exactly
        late_step = np.concatenate([np.zeros(398), [1.0, 3.0]])
        with pytest.raises(SingularDesign, match="collinear"):
            nonlinearity(standardize(late_step))

    @pytest.mark.parametrize("n", [3650, 12410])
    def test_exact_linear_recursions_give_zero(self, n):
        noiseless_sine = np.sin(2.0 * np.pi * np.arange(1, n + 1) / 365)
        ramp = np.arange(float(n))
        for x in (noiseless_sine, ramp):
            assert nonlinearity(standardize(x)) == 0.0

    def test_all_zero_y_is_an_exact_fit(self):
        # [0, 2, 1, 1, ...] standardizes to exactly 0 from its third day on,
        # so y = x[2:] is all zero while the lag regressors are not
        x = np.ones(800)
        x[:2] = (0.0, 2.0)
        assert nonlinearity(standardize(x)) == 0.0

    def test_too_short(self):
        with pytest.raises(TooShort):
            nonlinearity(np.arange(10.0))

    @pytest.mark.parametrize("kind", sorted(NONLINEARITY_SERIES))
    def test_matches_extended_precision_reference(self, kind):
        x = standardize(NONLINEARITY_SERIES[kind](12410))
        want = oracle.nonlinearity(x)
        assert want > 0.0
        assert abs(nonlinearity(x) - want) <= 1e-12 * want
