"""The compiled ACF kernel: lag sums, the Durbin-Levinson recursion, what a
kernel that cannot be built does to a batch, and features that do not depend
on the BLAS thread count."""

import datetime
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowregion import cli, dependence, native
from flowregion.dataio import IngestConfig, load_dataset
from flowregion.dependence import acf, pacf_from_acf
from flowregion.engine import extract_batch
from flowregion.errors import KernelBuildError, NumericalSingularity
from flowregion.series import TimeSeries
from flowregion.synthetic import SyntheticSpec, generate

import dependence_oracle as oracle
from conftest import ar1, sine

SRC = Path(native.__file__).resolve().parents[1]


@pytest.mark.parametrize("n, first, last", [
    (20, 0, 19),      # one full block of 16 lags, then a block of 4
    (20, 3, 7),       # one partial block
    (20, 19, 19),     # the last lag alone: a single term
    (1095, 0, 365),   # 23 blocks, the last holding 14 lags
    (1095, 1, 10),
    (3650, 0, 365),
    (3650, 366, 397),  # a first-zero extension block
])
def test_lag_sums_equal_sequential_sums_bit_for_bit(n, first, last):
    x = ar1(n, 0.7, seed=n) + sine(n, seed=first)
    xc = x - x.mean()
    assert dependence._lag_sums(xc, first, last).tolist() == oracle.lag_sums(xc, first, last)


def test_acf_divides_sequential_sums():
    x = sine(1095, noise_sd=0.5, seed=4)
    sums = oracle.lag_sums(x - x.mean(), 0, 30)
    assert acf(x, 30).tolist() == [s / sums[0] for s in sums[1:]]


@pytest.mark.parametrize("x", [
    sine(3650, noise_sd=0.3, seed=1),
    sine(12410, noise_sd=0.3, seed=2),
    ar1(3650, 0.8, seed=3),
    ar1(12410, 0.95, seed=4),
    ar1(1095, 0.3, seed=5) + sine(1095, amplitude=2.0),
], ids=["sine-3650", "sine-12410", "ar1-3650", "ar1-12410", "mixed-1095"])
def test_pacf_matches_numpy_recursion(x):
    # the two differ only in the order of each dot product's sum
    r = acf(x, 365)
    np.testing.assert_allclose(pacf_from_acf(r), oracle.pacf_from_acf(r), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("r, order", [
    (np.cos(2.0 * np.pi * np.arange(1, 20) / 12), 3),
    (np.ones(6), 2),
])
def test_singular_recursion_names_its_order(r, order):
    with pytest.raises(NumericalSingularity, match=f"denominator .* at order {order}$"):
        pacf_from_acf(r)


@pytest.mark.parametrize("call", [
    lambda: pacf_from_acf(np.array([])),
    lambda: pacf_from_acf(np.full((2, 3), 0.1)),
    lambda: dependence._lag_sums(np.ones(5), 0, 5),
    lambda: dependence._lag_sums(np.ones(5), 3, 2),
], ids=["empty-acf", "2d-acf", "lag-past-end", "empty-lag-range"])
def test_kernel_arguments_are_checked_before_the_call(call):
    with pytest.raises(ValueError):
        call()


_FEATURES_OF_ONE_SERIES = """
import numpy as np
from flowregion.engine import extract_features
from flowregion.series import TimeSeries

rng = np.random.default_rng(12410)
t = np.arange(12410)
x = np.sin(2 * np.pi * t / 365) + np.cumsum(rng.normal(size=t.size)) * 0.05 + rng.normal(size=t.size)
for name, value in extract_features(TimeSeries(x)).as_dict().items():
    print(name, value.hex())
"""


def test_features_do_not_depend_on_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", _FEATURES_OF_ONE_SERIES], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert len(outputs[0].splitlines()) == 28
    assert outputs[0] == outputs[1]


@pytest.fixture
def dataset(tmp_path):
    spec = SyntheticSpec(n_catchments=2, start_year=1999, n_years=3)
    generate(tmp_path / "series", tmp_path / "attributes.csv", seed=3, spec=spec)
    return tmp_path / "series", tmp_path / "attributes.csv"


def test_build_failure_aborts_batch_under_drop_policy(no_compiler):
    tasks = [(f"c{i}", "streamflow", TimeSeries(sine(1095, noise_sd=0.3, seed=i)))
             for i in range(3)]
    with pytest.raises(KernelBuildError):
        extract_batch(tasks, policy="drop")


def test_build_failure_aborts_load_dataset_under_drop_policy(dataset, no_compiler):
    config = IngestConfig(start=datetime.date(1999, 1, 1), end=datetime.date(2001, 12, 31),
                          policy="drop")
    with pytest.raises(KernelBuildError):
        load_dataset(*dataset, config)


def test_build_failure_exits_through_the_cli(dataset, no_compiler, tmp_path, capsys):
    series_dir, attributes = dataset
    code = cli.main(["extract", "--out", str(tmp_path / "out"), "--series-dir",
                     str(series_dir), "--attributes", str(attributes), "--drop",
                     "--start", "1999-01-01", "--end", "2001-12-31", "--workers", "1"])
    assert code == cli.EXIT_EXTRACTION
    assert "C compiler" in capsys.readouterr().err
