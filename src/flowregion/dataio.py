"""Dataset ingestion: daily series files plus the static-attributes table.

This module owns the dataset layout that ingestion, the synthetic generator
and the CLI fingerprint share: :func:`series_path` names each series file and
:func:`window_days` is the one calendar, which drops every Feb 29 so that
every year holds 365 days.

Input layout: one delimited text file per (catchment, variable) at
:func:`series_path` with header ``date,value`` and one ``YYYY-MM-DD,<value>``
line per day (other ISO 8601 date forms such as ``YYYYMMDD`` or week dates
are rejected), plus one attributes file with a ``catchment_id`` column and the
19 static attribute columns. Catchments whose series files are missing,
malformed or short of complete coverage of the configured window are dropped
with a logged reason. :class:`IngestConfig` raises :class:`ConfigError` when
it is built with a bad value: a period below 2, fewer than one worker, an
unknown policy or a window that holds no day.

:func:`load_dataset` (from the series) and :func:`assemble_rows` (from a
feature table that ``extract`` wrote, and the attributes) both return one
:class:`CatchmentTable`. It stacks the static block and the feature blocks
into the 75-column predictor matrix and ranks each column once, when it is
built; every regional analysis slices it.
"""

from __future__ import annotations

import csv
import ctypes
import datetime
import logging
import math
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import native
from .engine import (
    FEATURE_NAMES,
    Exclusion,
    FeatureConfig,
    FeatureVector,
    _extract_task,
    check_policy,
    collect_results,
    parallel_map,
)
from .errors import ConfigError, IncompleteRecord, ParseError, UnknownAttribute
from .forest import dense_ranks
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
_LOG_COLUMNS = [STATIC_ATTRIBUTES.index(name) for name in LOG_ATTRIBUTES]

#: Per-catchment input series; temperature is derived as (tmin + tmax) / 2.
SERIES_VARIABLES = ("tmin", "tmax", "precipitation", "streamflow")

#: The three series each catchment's features are extracted from.
VARIABLE_KINDS = ("temperature", "precipitation", "streamflow")


@dataclass
class IngestConfig:
    start: datetime.date = datetime.date(1980, 1, 1)
    end: datetime.date = datetime.date(2013, 12, 31)
    period: int = 365
    log_transform: bool = False  # apply log10 to the LOG_ATTRIBUTES on read
    policy: str = "drop"  # "drop" or "strict" for failing catchments
    workers: int = 1
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)

    def __post_init__(self):
        if self.period < 2:
            raise ConfigError(f"period must be >= 2, got {self.period}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        check_policy(self.policy)
        if not window_days(self.start, self.end)[1].any():
            raise ConfigError(f"the window {self.start} to {self.end} holds no day "
                              "once Feb 29 is dropped")


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


class CatchmentTable:
    """A dataset's complete catchments as blocks with one row per catchment.

    Row i of every block is catchment ``ids[i]``, and the ids are sorted and
    distinct. ``static`` holds the 19 :data:`STATIC_ATTRIBUTES` and
    ``blocks[variable]`` the 28 features of each of :data:`VARIABLE_KINDS`.
    When the table is built, ``predictors`` (C-contiguous) puts the static,
    temperature and precipitation blocks side by side, in the order of
    ``regional.ALL_PREDICTORS``, and ``ranks`` (predictors x catchments) holds
    the dense rank of every value within its column, as
    :class:`forest.DesignMatrix` takes them. The regional analyses slice
    these instead of building and ranking their own. Indexing or iterating
    gives :class:`CatchmentRecord` copies, one per catchment.
    """

    def __init__(self, ids, static, blocks: dict[str, np.ndarray]):
        self.ids = list(ids)
        if self.ids != sorted(set(self.ids)):
            raise ValueError("catchment ids must be sorted and distinct")
        self.static = _checked_block(static, len(self.ids), len(STATIC_ATTRIBUTES))
        self.blocks = {v: _checked_block(blocks[v], len(self.ids), len(FEATURE_NAMES))
                       for v in VARIABLE_KINDS}
        self.predictors = np.concatenate(
            [self.static, self.blocks["temperature"], self.blocks["precipitation"]], axis=1)
        self.ranks = dense_ranks(self.predictors)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> CatchmentRecord:
        return CatchmentRecord(self.ids[i], dict(zip(STATIC_ATTRIBUTES, self.static[i].tolist())),
                               *(FeatureVector(self.blocks[v][i].copy()) for v in VARIABLE_KINDS))

    def __iter__(self):
        return map(self.__getitem__, range(len(self.ids)))


def _checked_block(values, n: int, width: int) -> np.ndarray:
    """``values`` as a new n x width float64 array; an empty block may be flat."""
    block = np.array(values, dtype=np.float64)
    if block.shape != (n, width) and block.size + n:
        raise ValueError(f"expected a {n} x {width} block, got {block.shape}")
    return block.reshape(n, width)


def window_days(start: datetime.date, end: datetime.date) -> tuple[np.ndarray, np.ndarray]:
    """Every calendar day from ``start`` to ``end`` as ``datetime64[D]``, and
    the mask of the days a series keeps: all but Feb 29."""
    days = np.arange(np.datetime64(start, "D"), np.datetime64(end, "D") + 1)
    month = days.astype("datetime64[M]")
    feb29 = (month.astype(np.int64) % 12 == 1) & (days - month == np.timedelta64(28, "D"))
    return days, ~feb29


def series_path(series_dir, catchment_id: str, variable: str) -> Path:
    """The file holding the ``variable`` series of ``catchment_id``."""
    return Path(series_dir) / f"{catchment_id}_{variable}.csv"


#: What :func:`read_series_file` returns: one row per data line, in file order.
SERIES_DTYPE = np.dtype([("day", np.int64), ("value", np.float64)])


def read_series_file(path) -> np.ndarray:
    """Parse a ``date,value`` file into a :data:`SERIES_DTYPE` array.

    ``day`` is the proleptic Gregorian ordinal (``date.toordinal()``) of the
    line's ``YYYY-MM-DD`` date and ``value`` is ``float`` of the rest of the
    line, bit for bit. Lines may come in any order; blank lines are skipped.
    The kernel ``_ingest.c`` checks every line and converts the dates and the
    plain decimals that one exactly rounded operation converts (see
    ``plain_decimal`` there) in one pass; Python's ``float()`` converts the
    other values. A file that fails any check is scanned line by line for
    the :class:`ParseError` that names its first bad line. Raises
    :class:`KernelBuildError` when the kernel library cannot be built.
    """
    data = Path(path).read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: {exc.reason}") from exc
    header, _, body = text.partition("\n")
    if header.split(",")[:2] != ["date", "value"]:
        raise ParseError(f"{path}:1: expected 'date,value' header, got {header!r}")
    out = _parse_body(data[data.index(b"\n") + 1:], body)
    if out is None:
        _raise_first_bad_line(path, body)
    return out


def _parse_body(raw: bytes, body: str) -> np.ndarray | None:
    """The data lines of ``body`` (``raw`` holds its UTF-8 bytes), or None
    when one of them does not parse."""
    capacity = len(raw) // 12  # a data line takes 12 bytes or more
    out = np.empty(capacity, dtype=SERIES_DTYPE)
    deferred = np.empty(capacity, dtype=np.int64)
    n_deferred = ctypes.c_int64()
    rows = native.kernel().parse_series(raw, len(raw), out.ctypes.data, deferred.ctypes.data,
                                        ctypes.byref(n_deferred))
    if rows < 0:
        return None
    out = out[:rows]
    day = out["day"]
    if not (day[1:] > day[:-1]).all():  # a sorted file has no duplicate to look for
        ordered = np.sort(day)
        if (ordered[1:] == ordered[:-1]).any():
            return None
    if n_deferred.value:
        # every line holds one comma, so the values are every second field
        values = list(filter(None, body.replace("\n", ",").split(",")))[1::2]
        late = deferred[:n_deferred.value]
        try:
            out["value"][late] = [float(values[i]) for i in late.tolist()]
        except ValueError:
            return None
    return out


def _raise_first_bad_line(path, body: str) -> None:
    """Raise the ParseError of the first data line of ``body`` that does not
    parse; the same checks as :func:`_parse_body`, one line at a time."""
    seen = set()
    for lineno, line in enumerate(body.split("\n"), start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected two fields, got {line!r}")
        try:
            if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", parts[0]):
                raise ValueError(f"Invalid isoformat string: {parts[0]!r}")
            day = datetime.date.fromisoformat(parts[0])
            float(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if day in seen:
            raise ParseError(f"{path}:{lineno}: duplicate date {parts[0]}")
        seen.add(day)
    raise RuntimeError(f"{path}: rejected by the parser, but every line parses")


def read_attributes(path, log_transform: bool = False) -> dict[str, np.ndarray]:
    """Parse the static-attributes table into each catchment's 19 values, in
    :data:`STATIC_ATTRIBUTES` order (rows of one block), optionally
    log10-transforming the three log_-prefixed attributes from raw values.

    Every field is converted in one call; a row without a field per column, a
    value that is not a number, a non-positive value to log-transform, a
    non-finite value or a second row of one catchment raises
    :class:`ParseError` naming the first bad ``<path>:<line>``.
    """
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
        rows = [(lineno, parts) for lineno, parts in enumerate(reader, start=2) if parts]
    col = {name: header.index(name) for name in header}
    fields = operator.itemgetter(*(col[name] for name in STATIC_ATTRIBUTES))
    try:
        if any(len(parts) != len(header) for _, parts in rows):
            raise ValueError("a row without a field per column")
        ids = [parts[col["catchment_id"]] for _, parts in rows]
        values = np.array([fields(parts) for _, parts in rows],
                          dtype=np.float64).reshape(len(rows), len(STATIC_ATTRIBUTES))
        if log_transform:
            logged = values[:, _LOG_COLUMNS]
            if not (logged > 0).all():
                raise ValueError("a value to log-transform is not positive")
            values[:, _LOG_COLUMNS] = [[math.log10(v) for v in row] for row in logged.tolist()]
        if not np.isfinite(values).all() or len(set(ids)) < len(ids):
            raise ValueError("a non-finite value or a repeated catchment")
    except ValueError:
        _raise_first_bad_row(path, rows, header, log_transform)
    return dict(zip(ids, values))


def _raise_first_bad_row(path, rows, header: list[str], log_transform: bool) -> None:
    """Raise the ParseError of the first of the (line, fields) ``rows`` of an
    attributes file that :func:`read_attributes` rejects: its checks, one row
    at a time."""
    col = {name: header.index(name) for name in header}
    seen = set()
    for lineno, rowvals in rows:
        if len(rowvals) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} fields")
        for name in STATIC_ATTRIBUTES:
            try:
                v = float(rowvals[col[name]])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if log_transform and name in LOG_ATTRIBUTES:
                if v <= 0:
                    raise ParseError(f"{path}:{lineno}: {name} must be positive to log-transform")
                v = math.log10(v)
            if not math.isfinite(v):
                raise ParseError(f"{path}:{lineno}: non-finite {name}")
        cid = rowvals[col["catchment_id"]]
        if cid in seen:
            raise ParseError(f"{path}:{lineno}: duplicate catchment {cid}")
        seen.add(cid)
    raise RuntimeError(f"{path}: rejected as a block, but every row parses")


def _window_values(series: np.ndarray, config: IngestConfig, keep: np.ndarray,
                   label: str) -> np.ndarray:
    """The values of ``series`` on the window's days that ``keep`` marks."""
    position = series["day"] - config.start.toordinal()
    inside = (position >= 0) & (position < keep.size)
    position = position[inside]
    present = np.zeros(keep.size, dtype=bool)
    present[position] = True
    missing = np.count_nonzero(keep & ~present)
    if missing:
        raise IncompleteRecord(f"{label}: {missing} day(s) missing in the window")
    values = np.empty(keep.size)
    values[position] = series["value"][inside]
    values = values[keep]
    if not np.isfinite(values).all():
        raise IncompleteRecord(f"{label}: non-finite values in the window")
    return values


def _load_catchment(shared, cid: str):
    """Read, window and extract one catchment.

    Returns ``(error, results)``: the IncompleteRecord or ParseError that
    excludes the catchment, or its three ``engine._extract_task`` results.
    """
    series_dir, config, keep = shared
    per_variable = {}
    try:
        for variable in SERIES_VARIABLES:
            path = series_path(series_dir, cid, variable)
            if not path.exists():
                raise IncompleteRecord(f"missing series file {path}")
            per_variable[variable] = _window_values(
                read_series_file(path), config, keep, f"{cid}/{variable}")
    except (IncompleteRecord, ParseError) as exc:
        return exc, []
    values = {
        "temperature": (per_variable["tmin"] + per_variable["tmax"]) / 2.0,
        "precipitation": per_variable["precipitation"],
        "streamflow": per_variable["streamflow"],
    }
    return None, [
        _extract_task(config.feature_config,
                      (cid, kind, TimeSeries(values[kind], period=config.period)))
        for kind in sorted(values)
    ]


def load_dataset(
    series_dir, attributes_file, config: IngestConfig | None = None
) -> tuple[CatchmentTable, list[Exclusion]]:
    """Ingest a dataset directory into the table of its catchments' features.

    Temperature is the elementwise mean of the tmin and tmax series. Every
    series must cover the configured window completely (Feb 29 aside) and
    parse; catchments violating this are excluded with a logged reason under
    policy "drop" and abort the load under policy "strict".
    Each catchment is read and extracted as one job of ``config.workers``.
    """
    config = config or IngestConfig()
    attributes = read_attributes(attributes_file, config.log_transform)
    ids = sorted(attributes)
    loaded = parallel_map(_load_catchment, ids, config.workers,
                          shared=(series_dir, config, window_days(config.start, config.end)[1]))
    rows, exclusions = collect_results(
        [result for _, results in loaded for result in results], config.policy,
        failed=[(cid, error) for cid, (error, _) in zip(ids, loaded) if error is not None],
    )
    features = {(row.catchment_id, row.variable): row.features.values for row in rows}
    return assemble_rows(features, attributes), exclusions


def assemble_rows(features: dict[tuple[str, str], np.ndarray],
                  attributes: dict[str, np.ndarray]) -> CatchmentTable:
    """The table of every catchment that has a row of ``attributes`` (as
    :func:`read_attributes` returns them) and exactly the three feature rows
    of :data:`VARIABLE_KINDS` in ``features`` (as
    :func:`engine.read_feature_table` returns them): a catchment is all three
    vectors or nothing."""
    variables: dict[str, set[str]] = {}
    for cid, variable in features:
        variables.setdefault(cid, set()).add(variable)
    ids = [cid for cid in sorted(variables)
           if variables[cid] == set(VARIABLE_KINDS) and cid in attributes]
    return CatchmentTable(ids, [attributes[cid] for cid in ids],
                          {v: [features[cid, v] for cid in ids] for v in VARIABLE_KINDS})
