"""Deterministic synthetic mini-dataset for exercising the full pipeline.

Each catchment gets seeded AR/seasonal mixtures for temperature,
precipitation and streamflow, plus 19 noise static attributes. The planted
structure: the two designated precipitation features are measured on each
generated precipitation series, and the streamflow seasonal amplitude is a
noisy function of exactly those two measurements. The streamflow
``seasonal_strength`` feature is therefore recoverable from the precipitation
``entropy`` and ``x_acf10`` features, while the static attributes carry no
signal at all.

Each series covers the no-leap days of :func:`window` (Feb 29 repeats Feb 28)
in the file layout that :mod:`flowregion.dataio` owns. ``SyntheticSpec.period``
sets only the seasonal cycle, not the length of a series.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import STATIC_ATTRIBUTES, series_path, window_days
from .dependence import acf, spectral_entropy
from .engine import write_table
from .seeding import substream
from .series import standardize

#: The streamflow feature with a planted dependence on precipitation features.
PLANTED_TARGET = "seasonal_strength"

#: The two precipitation features the planted dependence runs through.
PLANTED_PREDICTORS = ("precipitation_entropy", "precipitation_x_acf10")

# typical location/scale of the two measured features under this generator,
# used to balance their contributions to the planted link
_ENTROPY_CENTER, _ENTROPY_SCALE = 0.80, 0.083
_ACF10_CENTER, _ACF10_SCALE = 2.08, 1.09


@dataclass
class SyntheticSpec:
    n_catchments: int = 60
    start_year: int = 1994
    n_years: int = 10
    period: int = 365


def _ar1(rng, n, phi, sd=1.0):
    noise = rng.normal(0.0, sd, size=n)
    out = np.empty(n)
    out[0] = noise[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        out[t] = phi * out[t - 1] + noise[t]
    return out


def _season(n, period, amplitude, phase=0.0):
    t = np.arange(1, n + 1)
    return amplitude * np.sin(2.0 * np.pi * t / period + phase)


def catchment_series(rng, n: int, period: int) -> dict[str, np.ndarray]:
    """One catchment's four daily series of ``n`` no-leap days, with a
    seasonal cycle of ``period`` days."""
    phi_p = rng.uniform(0.2, 0.85)
    amp_p = rng.uniform(0.3, 2.0)
    phase_p = rng.normal(0.0, 0.05)
    precipitation = 10.0 + _season(n, period, amp_p, phase_p) + _ar1(rng, n, phi_p)

    # planted link: the designated features are measured on the generated
    # precipitation series and drive the streamflow seasonal amplitude
    standardized = standardize(precipitation)
    entropy = spectral_entropy(standardized)
    r = acf(standardized, 10)
    z_entropy = (_ENTROPY_CENTER - entropy) / _ENTROPY_SCALE
    z_acf10 = (float(r @ r) - _ACF10_CENTER) / _ACF10_SCALE
    amp_q = np.clip(1.35 + 0.33 * z_entropy + 0.33 * z_acf10
                    + rng.normal(0.0, 0.04), 0.1, 3.0)
    phi_q = rng.uniform(0.2, 0.7)
    phase_q = rng.uniform(0.0, 2.0 * np.pi)
    streamflow = 20.0 + _season(n, period, amp_q, phase_q) + _ar1(rng, n, phi_q)

    amp_t = rng.uniform(6.0, 12.0)
    temperature = (
        rng.uniform(2.0, 16.0)
        + _season(n, period, amp_t, rng.normal(0.0, 0.05))
        + _ar1(rng, n, 0.7, sd=1.5)
    )
    diurnal = 4.0 + np.abs(rng.normal(0.0, 1.0, size=n))
    return {
        "tmin": temperature - diurnal,
        "tmax": temperature + diurnal,
        "precipitation": precipitation,
        "streamflow": streamflow,
    }


def catchment_attributes(rng) -> dict[str, float]:
    """Nineteen plausible but information-free static attributes."""
    soil = rng.dirichlet([2.0, 2.0, 2.0, 0.3, 0.3, 0.3])
    return {
        "log_elev_mean": rng.uniform(1.5, 3.6),
        "log_slope_mean": rng.uniform(0.5, 2.3),
        "log_area_gages2": rng.uniform(1.5, 4.0),
        "frac_forest": rng.uniform(0.0, 1.0),
        "lai_max": rng.uniform(0.5, 6.0),
        "gvf_diff": rng.uniform(0.0, 0.6),
        "dom_land_cover_frac": rng.uniform(0.3, 1.0),
        "soil_depth_pelletier": rng.uniform(0.5, 50.0),
        "soil_depth_statsgo": rng.uniform(0.3, 1.5),
        "max_water_content": rng.uniform(0.05, 0.6),
        "sand_frac": soil[0],
        "silt_frac": soil[1],
        "clay_frac": soil[2],
        "water_frac": soil[3],
        "organic_frac": soil[4],
        "other_frac": soil[5],
        "carbonate_rocks_frac": rng.uniform(0.0, 0.8),
        "geol_porosity": rng.uniform(0.01, 0.3),
        "geol_permeability": rng.uniform(-16.0, -11.0),
    }


def window(spec: SyntheticSpec) -> tuple[datetime.date, datetime.date]:
    """The first and the last day of the synthetic set: ``spec.n_years``
    whole calendar years from ``spec.start_year``."""
    return (datetime.date(spec.start_year, 1, 1),
            datetime.date(spec.start_year + spec.n_years - 1, 12, 31))


def generate(series_dir, attributes_file, seed: int = 7,
             spec: SyntheticSpec | None = None) -> list[str]:
    """Write the synthetic dataset; returns the catchment ids."""
    spec = spec or SyntheticSpec()
    series_dir = Path(series_dir)
    series_dir.mkdir(parents=True, exist_ok=True)
    Path(attributes_file).parent.mkdir(parents=True, exist_ok=True)
    days, keep = window_days(*window(spec))
    dates = [day.isoformat() + "," for day in days.tolist()]
    grid = np.cumsum(keep) - 1  # Feb 29 repeats the Feb 28 value
    n = int(np.count_nonzero(keep))
    ids = [f"synth{i:03d}" for i in range(spec.n_catchments)]
    attribute_rows = []
    for i, cid in enumerate(ids):
        rng = substream(seed, "catchment", i)
        series = catchment_series(rng, n, spec.period)
        attrs = catchment_attributes(rng)
        attribute_rows.append((cid, *(float(attrs[a]) for a in STATIC_ATTRIBUTES)))
        for variable, values in series.items():
            path = series_path(series_dir, cid, variable)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("date,value\n")
                fh.writelines(f"{date}{v!r}\n" for date, v in zip(dates, values[grid].tolist()))
    write_table(attributes_file, ("catchment_id", *STATIC_ATTRIBUTES), attribute_rows)
    return ids
