import numpy as np
import pytest
from hypothesis import settings

from flowregion import native
from flowregion.errors import KernelBuildError
from flowregion.series import TimeSeries

settings.register_profile("default", deadline=None)
settings.load_profile("default")


def ar1(n, phi, seed=0, sd=1.0):
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, sd, size=n)
    out = np.empty(n)
    out[0] = eps[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        out[t] = phi * out[t - 1] + eps[t]
    return out


def white_noise(n, seed=0):
    return np.random.default_rng(seed).normal(size=n)


def sine(n, period=365, amplitude=1.0, noise_sd=0.0, seed=0, phase=0.0):
    t = np.arange(1, n + 1)
    x = amplitude * np.sin(2.0 * np.pi * t / period + phase)
    if noise_sd > 0:
        x = x + np.random.default_rng(seed).normal(0.0, noise_sd, size=n)
    return x


def daily_series(values, period=365):
    return TimeSeries(np.asarray(values, dtype=float), period=period)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def no_compiler(monkeypatch):
    """The kernel library cannot be built: nothing is loaded and every build
    fails. Request it after any fixture that needs the kernels."""
    def fail(*args, **kwargs):
        raise KernelBuildError("cannot run the C compiler 'cc'")

    native.kernel.cache_clear()
    monkeypatch.setattr(native, "build", fail)
    yield
    native.kernel.cache_clear()
