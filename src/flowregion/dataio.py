"""Dataset ingestion: daily series files plus the static-attributes table.

Input layout: one delimited text file per (catchment, variable) named
``<catchment_id>_<variable>.csv`` with header ``date,value`` and ISO dates,
plus one attributes file with a ``catchment_id`` column and the 19 static
attribute columns. Catchments lacking complete coverage of the configured
window are dropped with a logged reason.
"""

from __future__ import annotations

import csv
import datetime
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import (
    Exclusion,
    FeatureConfig,
    FeatureRow,
    FeatureVector,
    extract_batch,
)
from .errors import IncompleteRecord, ParseError, UnknownAttribute
from .series import TimeSeries

logger = logging.getLogger(__name__)

#: The 19 static attributes; the log_-prefixed ones are stored log-transformed.
STATIC_ATTRIBUTES = (
    "log_elev_mean", "log_slope_mean", "log_area_gages2", "frac_forest",
    "lai_max", "gvf_diff", "dom_land_cover_frac", "soil_depth_pelletier",
    "soil_depth_statsgo", "max_water_content", "sand_frac", "silt_frac",
    "clay_frac", "water_frac", "organic_frac", "other_frac",
    "carbonate_rocks_frac", "geol_porosity", "geol_permeability",
)

LOG_ATTRIBUTES = ("log_elev_mean", "log_slope_mean", "log_area_gages2")

#: Per-catchment input series; temperature is derived as (tmin + tmax) / 2.
SERIES_VARIABLES = ("tmin", "tmax", "precipitation", "streamflow")

ANALYSIS_VARIABLES = ("temperature", "precipitation", "streamflow")


@dataclass
class IngestConfig:
    start: datetime.date = datetime.date(1980, 1, 1)
    end: datetime.date = datetime.date(2013, 12, 31)
    period: int = 365
    drop_leap_days: bool = True
    log_transform: bool = False  # apply log10 to the LOG_ATTRIBUTES on read
    policy: str = "drop"  # "drop" or "strict" for failing catchments
    workers: int = 1
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)


@dataclass
class CatchmentRecord:
    """One catchment: static attributes plus the three dynamic feature vectors."""

    catchment_id: str
    static: dict[str, float]
    temperature: FeatureVector
    precipitation: FeatureVector
    streamflow: FeatureVector

    def features(self, variable: str) -> FeatureVector:
        return getattr(self, variable)


def expected_dates(config: IngestConfig) -> list[datetime.date]:
    """Every calendar day of the window, minus Feb 29 when leap days drop."""
    days = []
    day = config.start
    one = datetime.timedelta(days=1)
    while day <= config.end:
        if not (config.drop_leap_days and day.month == 2 and day.day == 29):
            days.append(day)
        day += one
    return days


def read_series_file(path) -> dict[datetime.date, float]:
    """Parse a ``date,value`` file into a date-indexed mapping."""
    out: dict[datetime.date, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header.split(",")[:2] != ["date", "value"]:
            raise ParseError(f"{path}:1: expected 'date,value' header, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected two fields, got {line!r}")
            try:
                day = datetime.date.fromisoformat(parts[0])
                value = float(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if day in out:
                raise ParseError(f"{path}:{lineno}: duplicate date {parts[0]}")
            out[day] = value
    return out


def read_attributes(path, log_transform: bool = False) -> dict[str, dict[str, float]]:
    """Parse the static-attributes table, optionally log10-transforming the
    three log_-prefixed attributes from raw values."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}:1: empty attributes file") from None
        if "catchment_id" not in header:
            raise ParseError(f"{path}:1: missing catchment_id column")
        unknown = [c for c in header if c != "catchment_id" and c not in STATIC_ATTRIBUTES]
        if unknown:
            raise UnknownAttribute(
                f"{path}: unexpected attribute column(s): {', '.join(unknown)}"
            )
        missing = [c for c in STATIC_ATTRIBUTES if c not in header]
        if missing:
            raise ParseError(f"{path}:1: missing attribute column(s): {', '.join(missing)}")
        out: dict[str, dict[str, float]] = {}
        col = {name: header.index(name) for name in header}
        for lineno, rowvals in enumerate(reader, start=2):
            if not rowvals:
                continue
            if len(rowvals) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields")
            cid = rowvals[col["catchment_id"]]
            attrs: dict[str, float] = {}
            for name in STATIC_ATTRIBUTES:
                try:
                    v = float(rowvals[col[name]])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
                if log_transform and name in LOG_ATTRIBUTES:
                    if v <= 0:
                        raise ParseError(
                            f"{path}:{lineno}: {name} must be positive to log-transform"
                        )
                    v = math.log10(v)
                if not math.isfinite(v):
                    raise ParseError(f"{path}:{lineno}: non-finite {name}")
                attrs[name] = v
            if cid in out:
                raise ParseError(f"{path}:{lineno}: duplicate catchment {cid}")
            out[cid] = attrs
    return out


def _window_values(mapping, days, label):
    values = np.empty(len(days))
    missing = 0
    for i, day in enumerate(days):
        v = mapping.get(day)
        if v is None:
            missing += 1
        else:
            values[i] = v
    if missing:
        raise IncompleteRecord(f"{label}: {missing} day(s) missing in the window")
    if not np.isfinite(values).all():
        raise IncompleteRecord(f"{label}: non-finite values in the window")
    return values


def load_dataset(
    series_dir, attributes_file, config: IngestConfig | None = None
) -> tuple[list[CatchmentRecord], list[Exclusion]]:
    """Ingest a dataset directory into catchment records with features.

    Temperature is the elementwise mean of the tmin and tmax series. Every
    series must cover the configured window completely (after leap-day
    removal); catchments violating this are excluded with a logged reason
    under policy "drop" and abort the load under policy "strict".
    """
    config = config or IngestConfig()
    series_dir = Path(series_dir)
    attributes = read_attributes(attributes_file, config.log_transform)
    days = expected_dates(config)

    exclusions: list[Exclusion] = []
    tasks = []
    for cid in sorted(attributes):
        try:
            per_variable = {}
            for variable in SERIES_VARIABLES:
                path = series_dir / f"{cid}_{variable}.csv"
                if not path.exists():
                    raise IncompleteRecord(f"missing series file {path}")
                per_variable[variable] = _window_values(
                    read_series_file(path), days, f"{cid}/{variable}"
                )
        except IncompleteRecord as exc:
            if config.policy == "strict":
                raise
            logger.warning("excluding catchment %s: %s", cid, exc)
            exclusions.append(Exclusion(cid, "*", f"IncompleteRecord: {exc}"))
            continue
        temperature = (per_variable["tmin"] + per_variable["tmax"]) / 2.0
        for kind, values in (
            ("temperature", temperature),
            ("precipitation", per_variable["precipitation"]),
            ("streamflow", per_variable["streamflow"]),
        ):
            tasks.append((cid, kind, TimeSeries(
                values, start_date=days[0], period=config.period,
                variable_kind=kind,
            )))

    rows, feature_exclusions = extract_batch(
        tasks, config=config.feature_config, workers=config.workers,
        policy=config.policy,
    )
    exclusions.extend(feature_exclusions)
    failed = {e.catchment_id for e in exclusions}
    # a catchment is all three vectors or nothing
    kept = [row for row in rows if row.catchment_id not in failed]
    return assemble_rows(kept, attributes), exclusions


def assemble_rows(rows: list[FeatureRow], attributes) -> list[CatchmentRecord]:
    """Build records from a parsed feature table plus parsed attributes."""
    by_catchment: dict[str, dict[str, FeatureVector]] = {}
    for row in rows:
        by_catchment.setdefault(row.catchment_id, {})[row.variable] = row.features
    records = []
    for cid in sorted(by_catchment):
        vectors = by_catchment[cid]
        if set(vectors) == set(ANALYSIS_VARIABLES) and cid in attributes:
            records.append(CatchmentRecord(
                catchment_id=cid,
                static=attributes[cid],
                temperature=vectors["temperature"],
                precipitation=vectors["precipitation"],
                streamflow=vectors["streamflow"],
            ))
    return records
