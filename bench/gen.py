"""Seeded input generators for the benchmark.

Everything here is a function of the ``--seed`` argument only; the program
under test receives the files written here and nothing else. The generator
does not use ``flowregion.synthetic``, so a change to that module cannot move
the inputs. Column names and file layouts are the documented input formats.
"""

from __future__ import annotations

import datetime
from pathlib import Path

import numpy as np

PERIOD = 365

#: Temperature peak day-of-year (no-leap position, 1-based) is planted in this
#: range; the extracted temperature ``peak`` must land near it.
PEAK_DAY_RANGE = (170, 220)

#: Streamflow ``seasonal_strength`` is planted as a noisy monotone function of
#: precipitation ``entropy`` in the sampled regionalization records.
PLANTED_TARGET = "seasonal_strength"
PLANTED_FEATURE = "entropy"
PLANTED_PREDICTOR = f"precipitation_{PLANTED_FEATURE}"

#: Count-valued features and the integer ranges they are sampled from.
_INTEGER_RANGES = {
    "firstzero_ac": (40, 731),
    "crossing_points": (200, 2000),
    "flat_spots": (5, 60),
    "peak": (1, 366),
    "trough": (1, 366),
}


def rng_for(seed: int, *labels: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *labels])


def catchment_ids(n: int) -> list[str]:
    return [f"c{i:04d}" for i in range(n)]


def _calendar(first_year: int, n_years: int):
    """ISO date strings of every calendar day and the no-leap mask."""
    start = np.datetime64(f"{first_year}-01-01")
    stop = np.datetime64(f"{first_year + n_years}-01-01")
    days = np.arange(start, stop, dtype="datetime64[D]")
    iso = days.astype(str)
    leap = np.char.endswith(iso, "-02-29")
    return iso, ~leap


def _smooth_noise(rng, n, memory, sd):
    """Autocorrelated noise: white noise through a truncated exponential filter."""
    kernel = np.exp(-np.arange(int(6 * memory)) / memory)
    kernel /= np.sqrt(kernel @ kernel)
    white = rng.normal(0.0, sd, size=n + kernel.size - 1)
    return np.convolve(white, kernel, mode="valid")


def catchment_series(rng, n: int) -> tuple[dict[str, np.ndarray], int]:
    """The four daily series of one catchment on the 365-day grid, plus the
    planted temperature peak position (1-based)."""
    pos = np.arange(n) % PERIOD + 1
    peak = int(rng.integers(*PEAK_DAY_RANGE))
    season = np.cos(2.0 * np.pi * (pos - peak) / PERIOD)
    temperature = (rng.uniform(4.0, 14.0) + rng.uniform(8.0, 14.0) * season
                   + _smooth_noise(rng, n, rng.uniform(2.0, 5.0), 2.0))
    diurnal = rng.uniform(7.0, 12.0) + _smooth_noise(rng, n, 3.0, 1.0)

    wet_prob = np.clip(rng.uniform(0.25, 0.5)
                       + rng.uniform(0.0, 0.15) * np.cos(2.0 * np.pi * (pos - rng.integers(1, 366)) / PERIOD),
                       0.05, 0.95)
    wet = rng.random(n) < wet_prob
    amount = rng.gamma(0.8, rng.uniform(4.0, 9.0), size=n)
    precipitation = np.round(np.where(wet, amount, 0.0), 1)

    memory = rng.uniform(5.0, 40.0)
    reservoir = np.exp(-np.arange(int(8 * memory)) / memory)
    reservoir /= reservoir.sum()
    padded = np.concatenate([np.full(reservoir.size - 1, precipitation.mean()), precipitation])
    runoff = np.convolve(padded, reservoir, mode="valid")
    streamflow = (rng.uniform(0.2, 2.0) + rng.uniform(0.3, 0.8) * runoff
                  * (1.0 + 0.3 * season) + np.abs(_smooth_noise(rng, n, 10.0, 0.05)))
    series = {
        "tmin": temperature - diurnal / 2.0,
        "tmax": temperature + diurnal / 2.0,
        "precipitation": precipitation,
        "streamflow": streamflow,
    }
    return series, peak


def _write_series(path: Path, iso, keep, values, fmt):
    full = np.empty(iso.size)
    full[keep] = values
    leap = np.flatnonzero(~keep)
    full[leap] = values[np.minimum(leap - np.arange(leap.size), values.size - 1)]
    text = "\n".join(map(fmt.format, iso.tolist(), full.tolist()))
    path.write_text("date,value\n" + text + "\n", encoding="utf-8")


def write_attributes(path: Path, rng, ids, attribute_names) -> None:
    lines = ["catchment_id," + ",".join(attribute_names)]
    for cid in ids:
        values = rng.uniform(0.0, 1.0, size=len(attribute_names))
        lines.append(cid + "," + ",".join(f"{v:.6f}" for v in values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_series_dataset(directory: Path, seed: int, n_catchments: int,
                         first_year: int, n_years: int,
                         attribute_names) -> dict[str, int]:
    """Write ``<catchment_id>_<variable>.csv`` files plus ``attributes.csv``.

    Files hold every calendar day, Feb 29 included, as real exports do.
    Returns the planted temperature peak position of each catchment.
    """
    directory.mkdir(parents=True, exist_ok=True)
    iso, keep = _calendar(first_year, n_years)
    n = int(keep.sum())
    ids = catchment_ids(n_catchments)
    planted = {}
    for i, cid in enumerate(ids):
        series, planted[cid] = catchment_series(rng_for(seed, 1, i), n)
        for variable, values in series.items():
            fmt = "{},{:.1f}" if variable == "precipitation" else "{},{:.4f}"
            _write_series(directory / f"{cid}_{variable}.csv", iso, keep, values, fmt)
    write_attributes(directory / "attributes.csv", rng_for(seed, 2), ids,
                     attribute_names)
    return planted


def sample_feature_table(seed: int, n_catchments: int, feature_names,
                         attribute_names) -> tuple[list[str], dict, dict]:
    """Sampled per-catchment feature vectors and static attributes.

    Returns ids, ``{(cid, variable): 28 values}`` and ``{cid: 19 values}``.
    Count features are integers (so ranks tie); the rest are continuous.
    Every streamflow feature is a noisy mix of two temperature features,
    except the planted target, which is a noisy monotone function of the
    planted precipitation predictor alone.
    """
    rng = rng_for(seed, 3)
    ids = catchment_ids(n_catchments)
    nf = len(feature_names)

    def block():
        out = rng.normal(0.0, 1.0, size=(n_catchments, nf))
        for j, name in enumerate(feature_names):
            if name in _INTEGER_RANGES:
                out[:, j] = rng.integers(*_INTEGER_RANGES[name], size=n_catchments)
        return out

    temperature = block()
    precipitation = block()
    streamflow = block()
    mixes = rng.integers(0, nf, size=(nf, 2))
    for j, name in enumerate(feature_names):
        if name in _INTEGER_RANGES:
            continue
        a, b = mixes[j]
        streamflow[:, j] = (0.6 * temperature[:, a] - 0.4 * temperature[:, b]
                            + 0.5 * streamflow[:, j])
    planted = precipitation[:, feature_names.index(PLANTED_FEATURE)]
    streamflow[:, feature_names.index(PLANTED_TARGET)] = (
        0.2 + 0.6 / (1.0 + np.exp(-2.0 * planted)) + rng.normal(0.0, 0.02, size=n_catchments)
    )
    static = rng.uniform(0.0, 1.0, size=(n_catchments, len(attribute_names)))
    vectors = {}
    for i, cid in enumerate(ids):
        vectors[(cid, "temperature")] = temperature[i]
        vectors[(cid, "precipitation")] = precipitation[i]
        vectors[(cid, "streamflow")] = streamflow[i]
    return ids, vectors, {cid: static[i] for i, cid in enumerate(ids)}


def write_feature_dataset(directory: Path, seed: int, n_catchments: int,
                          feature_names, attribute_names) -> None:
    """Write ``features.csv`` and ``attributes.csv`` in the documented layouts."""
    directory.mkdir(parents=True, exist_ok=True)
    ids, vectors, static = sample_feature_table(seed, n_catchments, feature_names,
                                                attribute_names)
    lines = ["catchment_id,variable," + ",".join(feature_names)]
    for cid in ids:
        for variable in ("precipitation", "streamflow", "temperature"):
            lines.append(f"{cid},{variable}," + ",".join(map(repr, vectors[(cid, variable)].tolist())))
    (directory / "features.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines = ["catchment_id," + ",".join(attribute_names)]
    for cid in ids:
        lines.append(cid + "," + ",".join(map(repr, static[cid].tolist())))
    (directory / "attributes.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def window_dates(first_year: int, n_years: int) -> tuple[datetime.date, datetime.date]:
    return datetime.date(first_year, 1, 1), datetime.date(first_year + n_years - 1, 12, 31)
