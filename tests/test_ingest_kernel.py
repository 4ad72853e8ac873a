"""The compiled series-file parser: values equal to float() bit for bit, date
ordinals equal to date.toordinal(), and what a kernel that cannot be built
does to a read, a load and the CLI."""

import ctypes
import datetime
import random

import numpy as np
import pytest

from flowregion import cli, dataio, engine, native
from flowregion.dataio import IngestConfig, load_dataset, read_series_file
from flowregion.errors import KernelBuildError
from flowregion.synthetic import SyntheticSpec, generate


def kernel_parse(raw: bytes, size=None):
    """(rows, deferred row indices) of the kernel on the first ``size`` bytes
    of ``raw``."""
    size = len(raw) if size is None else size
    rows = np.empty(raw.count(b"\n") + 1, dtype=dataio.SERIES_DTYPE)
    deferred = np.empty(rows.size, dtype=np.int64)
    n_deferred = ctypes.c_int64()
    count = native.kernel().parse_series(raw, size, rows.ctypes.data, deferred.ctypes.data,
                                         ctypes.byref(n_deferred))
    if count < 0:
        return None
    return rows[:count], deferred[:n_deferred.value].tolist()


#: forms the kernel converts itself
PLAIN = ["0", "-0", "+0", "-0.0", "+.5", "5.", ".5", "-.5e-3", "1e22", "1E+22", "-1e-22",
         "9007199254740992", "123.456e-7", "0.000001", "900719925474099.2e1"]

#: forms float() accepts that the kernel leaves to it
DEFERRED = ["1e23", "9007199254740993", "12345678901234567890", "0.12345678901234567890",
            "5e-324", "2.2250738585072014e-308", "1e-310", "1.7976931348623157e308",
            "nan", "-NaN", "inf", "-Infinity", "1_000.5", " 1.5", "1.5 ", "\t2\t",
            "\u0661\u0662.5", "1e400", "-1e-400", "0.1234567890123456789e-5", "1e-23"]


def value_strings(count, seed):
    """``count`` value strings float() accepts, in a seeded mix of forms."""
    rng = random.Random(seed)

    def magnitude():
        return rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-8, 8)

    def decimal():
        # a significand of 1 to 22 digits, the point anywhere, an exponent near +-22
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 22)))
        cut = rng.randint(0, len(digits))
        return f"{digits[:cut]}.{digits[cut:]}" + rng.choice(["", f"e{rng.randint(-30, 30)}"])

    makers = [
        lambda: repr(magnitude()),
        lambda: f"{magnitude():.{rng.randint(1, 6)}f}",
        lambda: f"{magnitude():.15g}",
        lambda: f"{magnitude():.{rng.randint(0, 9)}e}".replace("e", rng.choice("eE")),
        lambda: f"{rng.choice(['', '+', '-'])}{rng.randint(0, 10 ** 12)}"
                f"e{rng.choice(['', '+', '-'])}{rng.randint(0, 30)}",
        lambda: str(rng.randint(-10 ** rng.randint(1, 20), 10 ** rng.randint(1, 20))),
        decimal,
        lambda: f"{rng.randint(0, 9007199254740993)}e{rng.randint(-23, 23)}",
        lambda: repr(rng.uniform(0.0, 1.0) * 2.0 ** rng.randint(-1074, -1022)),  # subnormal
        lambda: rng.choice(PLAIN + DEFERRED),
    ]
    return [rng.choice(makers)() for _ in range(count)]


def test_plain_forms_are_converted_by_the_kernel():
    lines = [f"{datetime.date(1999, 1, 1) + datetime.timedelta(days=i)},{v}"
             for i, v in enumerate(PLAIN + DEFERRED)]
    rows, deferred = kernel_parse(("\n".join(lines) + "\n").encode())
    assert deferred == list(range(len(PLAIN), len(PLAIN) + len(DEFERRED)))
    plain = rows["value"][:len(PLAIN)]
    assert plain.tobytes() == np.array([float(v) for v in PLAIN]).tobytes()


def test_values_equal_float_bit_for_bit(tmp_path):
    values = value_strings(120_000, seed=2024)
    first = datetime.date(1700, 1, 1)
    path = tmp_path / "c_streamflow.csv"
    path.write_text("date,value\n" + "".join(
        f"{first + datetime.timedelta(days=i)},{v}\n" for i, v in enumerate(values)),
        encoding="utf-8")
    parsed = read_series_file(path)
    want = np.array([float(v) for v in values])
    assert parsed["value"].view(np.int64).tolist() == want.view(np.int64).tolist()
    # most forms take the kernel's path; the rest were handed to float()
    _, deferred = kernel_parse(path.read_bytes().partition(b"\n")[2])
    assert 0.05 * len(values) < len(deferred) < 0.6 * len(values)


def test_ordinals_equal_toordinal(tmp_path):
    first, last = datetime.date(1600, 1, 1), datetime.date(2400, 12, 31)
    days = [first + datetime.timedelta(days=i)
            for i in range(last.toordinal() - first.toordinal() + 1)]
    days += [datetime.date(1, 1, 1), datetime.date(9999, 12, 31)]
    path = tmp_path / "c_tmin.csv"
    path.write_text("date,value\n" + "".join(f"{day.isoformat()},1\n" for day in days))
    parsed = read_series_file(path)
    assert parsed["day"].tolist() == [day.toordinal() for day in days]


def test_kernel_stops_at_its_length():
    raw = b"1999-01-01,1.25\n1999-01-02,x,y\n"
    rows, deferred = kernel_parse(raw, size=raw.index(b"\n") + 1)
    assert rows.tolist() == [(datetime.date(1999, 1, 1).toordinal(), 1.25)] and not deferred
    assert kernel_parse(raw) is None


@pytest.fixture
def dataset(tmp_path):
    spec = SyntheticSpec(n_catchments=2, start_year=1999, n_years=3)
    generate(tmp_path / "series", tmp_path / "attributes.csv", seed=3, spec=spec)
    return tmp_path / "series", tmp_path / "attributes.csv"


def test_build_failure_propagates_from_read_series_file(dataset, no_compiler):
    series_dir, _ = dataset
    with pytest.raises(KernelBuildError):
        read_series_file(next(series_dir.glob("*_tmin.csv")))


def _no_pool(*args, **kwargs):
    raise AssertionError("a pool started after the build failed")


def test_build_failure_aborts_load_dataset_under_drop_policy(dataset, no_compiler,
                                                             monkeypatch):
    config = IngestConfig(start=datetime.date(1999, 1, 1), end=datetime.date(2001, 12, 31),
                          policy="drop", workers=2)
    monkeypatch.setattr(engine, "ProcessPoolExecutor", _no_pool)
    with pytest.raises(KernelBuildError):
        load_dataset(*dataset, config)


def test_build_failure_exits_through_the_cli(dataset, no_compiler, tmp_path, capsys):
    series_dir, attributes = dataset
    code = cli.main(["extract", "--out", str(tmp_path / "out"), "--series-dir",
                     str(series_dir), "--attributes", str(attributes), "--drop",
                     "--start", "1999-01-01", "--end", "2001-12-31", "--workers", "2"])
    assert code == cli.EXIT_EXTRACTION
    assert "C compiler" in capsys.readouterr().err
