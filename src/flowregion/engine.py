"""Orchestration of the 28-feature vector and batch extraction over catchments.

:func:`extract_features` standardizes a validated series once and passes the
array ``x``, and the series' ``period`` where a feature needs it, to each
feature function.

:class:`FeatureConfig` holds the four estimator options a run may set: the
Daniell spans of the spectral entropy and the three STL spans; a bad span
raises :class:`ConfigError` when the config is built. Every other convention
is fixed in its feature module: the first-zero ACF scan stops at twice the
period, lumpiness and stability tile the series by the period, and the
decomposition runs two non-robust passes.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import decomposition, dependence, distributional, native
from .errors import (
    ConfigError,
    ExtractionFailed,
    FlowRegionError,
    KernelBuildError,
    NonFinite,
    NonIntegral,
    ParseError,
)
from .series import TimeSeries, standardize, validate

logger = logging.getLogger(__name__)

#: Canonical feature order; every downstream matrix is column-stable in it.
FEATURE_NAMES = (
    "x_acf1", "x_acf10", "diff1_acf1", "diff1_acf10", "diff2_acf1",
    "diff2_acf10", "seas_acf1", "firstzero_ac", "x_pacf5", "diff1x_pacf5",
    "diff2x_pacf5", "seas_pacf", "std1st_der", "crossing_points", "entropy",
    "flat_spots", "lumpiness", "stability", "nonlinearity", "trend", "spike",
    "linearity", "curvature", "e_acf1", "e_acf10", "seasonal_strength",
    "peak", "trough",
)

#: Count-valued features stored as reals; integrality is asserted on build.
INTEGER_FEATURES = frozenset(
    {"firstzero_ac", "crossing_points", "flat_spots", "peak", "trough"}
)

_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}
#: the places of the count features, in canonical order
_COUNT_INDEX = tuple(i for i, name in enumerate(FEATURE_NAMES) if name in INTEGER_FEATURES)


@dataclass
class FeatureConfig:
    """Estimator options; the defaults are the pinned conventions."""

    entropy_spans: tuple[int, ...] = (3, 3)
    seasonal_span: int | str = decomposition.PERIODIC
    trend_span: int | None = None  # None -> 2 * period + 1
    lowpass_span: int | None = None  # None -> next odd >= period

    def __post_init__(self):
        # a Loess span is an odd integer >= 3; trend and low-pass
        # spans are rounded up to the next odd integer
        if self.seasonal_span != decomposition.PERIODIC and not (
                _is_int(self.seasonal_span) and self.seasonal_span >= 3
                and self.seasonal_span % 2 == 1):
            raise ConfigError(f"seasonal span must be {decomposition.PERIODIC!r} or an "
                              f"odd integer >= 3, got {self.seasonal_span!r}")
        for name in ("trend_span", "lowpass_span"):
            span = getattr(self, name)
            if span is not None and not (_is_int(span) and span >= 2):
                raise ConfigError(f"{name.replace('_', ' ')} must be an integer >= 2, "
                                  f"got {span!r}")
        if not (isinstance(self.entropy_spans, tuple)
                and all(_is_int(span) and span >= 1 for span in self.entropy_spans)):
            raise ConfigError(f"entropy spans must be a tuple of integers >= 1, "
                              f"got {self.entropy_spans!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class FeatureVector:
    """The 28 named feature values of one series, in canonical order."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(FEATURE_NAMES),):
            raise ValueError(
                f"expected {len(FEATURE_NAMES)} feature values, got {self.values.shape}"
            )
        if not np.isfinite(self.values).all():
            bad = [FEATURE_NAMES[i] for i in np.flatnonzero(~np.isfinite(self.values))]
            raise NonFinite(f"non-finite feature value(s): {', '.join(bad)}")
        for i in _COUNT_INDEX:
            v = self.values[i]
            if v != np.floor(v):
                raise NonIntegral(f"{FEATURE_NAMES[i]} must be integral, got {v!r}")

    @classmethod
    def from_dict(cls, mapping: dict[str, float]) -> "FeatureVector":
        missing = [n for n in FEATURE_NAMES if n not in mapping]
        if missing:
            raise ValueError(f"missing feature(s): {', '.join(missing)}")
        extra = set(mapping) - set(FEATURE_NAMES)
        if extra:
            raise ValueError(f"unknown feature(s): {', '.join(sorted(extra))}")
        return cls(np.array([mapping[n] for n in FEATURE_NAMES]))

    def __getitem__(self, name: str) -> float:
        return float(self.values[_INDEX[name]])

    def as_dict(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(FEATURE_NAMES, self.values)}


def _step(label: str, fn):
    try:
        return fn()
    except (ExtractionFailed, KernelBuildError):
        raise
    except FlowRegionError as exc:
        raise ExtractionFailed(label, exc) from exc


def extract_features(series: TimeSeries, config: FeatureConfig | None = None) -> FeatureVector:
    """Compute all 28 features of one series.

    The series is validated and standardized once; every feature is computed
    from the standardized values. Deterministic for a fixed input and config.
    Upstream errors are re-raised as ExtractionFailed naming the feature.
    """
    cfg = config or FeatureConfig()
    x = _step("standardize", lambda: standardize(validate(series).values))
    out, acfs = _step("acf features", lambda: dependence.acf_feature_set(x, series.period))
    out.update(_step("pacf features", lambda: dependence.pacf_feature_set(acfs, series.period)))
    out["std1st_der"] = _step("std1st_der", lambda: distributional.std1st_der(x))
    out["crossing_points"] = _step(
        "crossing_points", lambda: float(distributional.crossing_points(x)))
    out["entropy"] = _step("entropy", lambda: dependence.spectral_entropy(
        x, smooth_spans=cfg.entropy_spans))
    out["flat_spots"] = _step("flat_spots", lambda: float(distributional.flat_spots(x)))
    out.update(_step("tiled stats", lambda: distributional.tiled_stats(x, series.period)))
    out["nonlinearity"] = _step("nonlinearity", lambda: distributional.nonlinearity(x))
    out.update(_step("decomposition features", lambda: decomposition.stl_feature_set(
        x, series.period, seasonal_span=cfg.seasonal_span, trend_span=cfg.trend_span,
        lowpass_span=cfg.lowpass_span)))
    return _step("feature vector", lambda: FeatureVector.from_dict(out))


@dataclass
class FeatureRow:
    catchment_id: str
    variable: str
    features: FeatureVector


@dataclass
class Exclusion:
    catchment_id: str
    variable: str
    reason: str


_worker_job = None  # (fn, shared), set once in each pool worker by _init_worker


def _init_worker(fn, shared):
    global _worker_job
    _worker_job = (fn, shared)


def _run_item(item):
    fn, shared = _worker_job
    return fn(shared, item)


def parallel_map(fn, items, workers: int, shared=None) -> list:
    """``[fn(shared, item) for item in items]``, spread over ``workers`` processes.

    ``fn`` must be a module-level function. ``shared`` reaches each worker once,
    through the pool initializer, instead of once per item. Results keep the
    order of ``items``, so they do not depend on the worker count.
    """
    items = list(items)
    workers = min(workers, len(items))  # the pool forks all its workers at once
    if workers <= 1:
        return [fn(shared, item) for item in items]
    native.kernel()  # workers inherit it; a failed build stops here, before any fork
    # A chunk size that divides each worker's even share of the items gives no
    # worker more than that share, so equal-cost items end as early as one at a
    # time would; take the largest that leaves every worker four chunks, or 1.
    share = math.ceil(len(items) / workers)
    chunksize = max((c for c in range(2, share // 4 + 1) if share % c == 0), default=1)
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(fn, shared)) as pool:
        return list(pool.map(_run_item, items, chunksize=chunksize))


def _extract_task(config, task):
    catchment_id, variable, series = task
    try:
        return catchment_id, variable, extract_features(series, config), None
    except ExtractionFailed as exc:  # a KernelBuildError passes: it aborts the batch
        reason = f"{type(exc.cause).__name__} in {exc.feature}: {exc.cause}"
        return catchment_id, variable, None, reason


def check_policy(policy: str) -> None:
    """Reject a batch policy other than "strict" and "drop"."""
    if policy not in ("strict", "drop"):
        raise ConfigError(f"unknown batch policy {policy!r}")


def collect_results(
    results, policy: str, failed=(),
) -> tuple[list[FeatureRow], list[Exclusion]]:
    """Rows and exclusions from :func:`_extract_task` results, under ``policy``.

    ``failed`` holds ``(catchment id, error)`` for each catchment that failed
    before extraction. Under policy="strict" the first of them is raised, or
    else any extraction failure raises ExtractionFailed. Under policy="drop"
    each failure becomes a logged exclusion: the catchments in ``failed``
    first (variable ``*``), then the failed records in result order.
    """
    if failed and policy == "strict":
        raise failed[0][1]
    exclusions: list[Exclusion] = []
    for cid, error in failed:
        logger.warning("excluding catchment %s: %s", cid, error)
        exclusions.append(Exclusion(cid, "*", f"{type(error).__name__}: {error}"))
    rows: list[FeatureRow] = []
    dropped: list[Exclusion] = []
    for cid, var, features, failure in results:
        if failure is None:
            rows.append(FeatureRow(cid, var, features))
        else:
            dropped.append(Exclusion(cid, var, failure))
    if dropped and policy == "strict":
        summary = "; ".join(
            f"{e.catchment_id}/{e.variable}: {e.reason}" for e in dropped
        )
        raise ExtractionFailed(f"{len(dropped)} record(s) failed", summary)
    for exc in dropped:
        logger.warning("dropping %s/%s: %s", exc.catchment_id, exc.variable,
                       exc.reason)
    return rows, exclusions + dropped


def extract_batch(
    tasks,
    config: FeatureConfig | None = None,
    workers: int = 1,
    policy: str = "strict",
) -> tuple[list[FeatureRow], list[Exclusion]]:
    """Extract features for many (catchment, variable, series) tasks.

    Output rows are sorted by (catchment id, variable) and identical
    regardless of worker count. Under policy="strict" any failure raises;
    under policy="drop" failing records become logged exclusions.
    """
    check_policy(policy)
    ordered = sorted(tasks, key=lambda t: (t[0], t[1]))
    return collect_results(parallel_map(_extract_task, ordered, workers, shared=config),
                           policy)


def write_table(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as RFC 4180 CSV with LF line ends, the one
    format of every table the pipeline writes: a field holding a comma, quote or
    line break is quoted, and a float is written as its round-trip ``repr``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_feature_table(path, rows: list[FeatureRow]) -> None:
    """Write feature rows as ``catchment_id,variable,<28 features>`` rows."""
    write_table(path, ("catchment_id", "variable", *FEATURE_NAMES),
                ((row.catchment_id, row.variable, *row.features.values.tolist())
                 for row in rows))


def read_feature_table(path) -> dict[tuple[str, str], np.ndarray]:
    """Parse a feature table written by :func:`write_feature_table` into the
    28 values of each (catchment id, variable) row, in file order (rows of one
    block).

    Blank rows are skipped. The fields are converted in one call per chunk of
    rows, so that only one chunk's strings are held at a time. A wrong
    header, a row without 30 fields, a value that is not a finite number, a
    count that is not integral or a second row of one (catchment, variable)
    raises :class:`ParseError` naming the first bad ``<path>:<line>``.
    """
    keys, blocks = [], [np.empty((0, len(FEATURE_NAMES)))]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _TABLE_HEADER:
            raise ParseError(f"{path}:1: unexpected feature table header")
        rows = filter(None, reader)
        try:
            while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
                if any(len(parts) != len(_TABLE_HEADER) for parts in chunk):
                    raise ValueError("a row without 30 fields")
                blocks.append(np.array([parts[2:] for parts in chunk], dtype=np.float64))
                keys.extend((parts[0], parts[1]) for parts in chunk)
        except ValueError:
            _raise_first_bad_row(path)
    values = np.concatenate(blocks)
    counts = values[:, _COUNT_INDEX]
    table = dict(zip(keys, values))
    if not (np.isfinite(values).all() and (counts == np.floor(counts)).all()
            and len(table) == len(keys)):
        _raise_first_bad_row(path)
    return table


_TABLE_HEADER = ["catchment_id", "variable", *FEATURE_NAMES]
#: rows converted per call; their strings are what read_feature_table holds
_CHUNK_ROWS = 256


def _raise_first_bad_row(path) -> None:
    """Raise the ParseError of the first row of a feature table that
    :func:`read_feature_table` rejects: its checks, one row at a time."""
    seen = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for parts in filter(None, reader):
            if len(parts) != len(_TABLE_HEADER):
                raise ParseError(f"{path}:{reader.line_num}: expected {len(_TABLE_HEADER)} "
                                 f"fields, got {len(parts)}")
            try:
                FeatureVector(np.array([float(v) for v in parts[2:]]))
            except ValueError as exc:  # NonFinite and NonIntegral among them
                raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
            key = (parts[0], parts[1])
            if key in seen:
                raise ParseError(f"{path}:{reader.line_num}: duplicate row ({', '.join(key)})")
            seen.add(key)
    raise RuntimeError(f"{path}: rejected, but every row parses")
