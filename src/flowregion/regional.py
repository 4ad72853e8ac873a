"""Regionalization analyses: correlation screening, cross-validated prediction,
importance rankings and feature summaries over catchments.

Every analysis reads a :class:`dataio.CatchmentTable`, whose blocks, 75-column
predictor matrix and dense ranks are built once, when the table is built; the
analyses only slice them. Predictor groups combine three column blocks: S =
the 19 static attributes, T = the temperature block, P = the precipitation
block; the targets are the columns of the streamflow block. A group's columns
sliced from the table's ranks are the dense ranks of that group ranked on its
own, so no analysis ranks again. The seven groups S, T, P, ST, SP, TP, STP
are evaluated against each of the 28 streamflow features under a shared
k-fold partition, with pooled RMSE.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .dataio import STATIC_ATTRIBUTES, VARIABLE_KINDS, CatchmentTable
from .engine import FEATURE_NAMES, parallel_map, write_table
from .errors import BadK, ConstantVector, FlowRegionError, LengthMismatch
from .forest import (
    DesignMatrix,
    ForestParams,
    ImportanceReport,
    cross_predict,
    fit,
    permutation_importance,
)
from .seeding import child_seed, child_seeds, substream

logger = logging.getLogger(__name__)

#: Canonical group order; also the rank tie-break order.
GROUP_NAMES = ("S", "T", "P", "ST", "SP", "TP", "STP")

TEMPERATURE_PREDICTORS = tuple(f"temperature_{f}" for f in FEATURE_NAMES)
PRECIPITATION_PREDICTORS = tuple(f"precipitation_{f}" for f in FEATURE_NAMES)

_BLOCKS = {"S": STATIC_ATTRIBUTES, "T": TEMPERATURE_PREDICTORS,
           "P": PRECIPITATION_PREDICTORS}

#: All 75 potential predictors in canonical order, that of the table's predictors.
ALL_PREDICTORS = STATIC_ATTRIBUTES + TEMPERATURE_PREDICTORS + PRECIPITATION_PREDICTORS

#: the column of every predictor in CatchmentTable.predictors
_COLUMN = {name: i for i, name in enumerate(ALL_PREDICTORS)}


def group_columns(group: str) -> list[str]:
    """Predictor column names of one group, in canonical order."""
    if group not in GROUP_NAMES:
        raise ValueError(f"unknown predictor group {group!r}")
    return [col for letter in group for col in _BLOCKS[letter]]


def predictor_matrix(table: CatchmentTable, columns: list[str]) -> np.ndarray:
    """The catchments x predictors matrix of the given columns, sliced from
    the table's predictors."""
    return table.predictors[:, [_COLUMN[c] for c in columns]]


def target_vector(table: CatchmentTable, feature: str) -> np.ndarray:
    if feature not in FEATURE_NAMES:
        raise ValueError(f"unknown streamflow feature {feature!r}")
    return table.blocks["streamflow"][:, FEATURE_NAMES.index(feature)].copy()


# -- correlation analysis ----------------------------------------------------

def average_ranks(values) -> np.ndarray:
    """Average-fractional ranks (1-based); ties get the mean tied position."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    sorted_vals = v[order]
    # tie group g covers sorted positions starts[g] .. ends[g] - 1
    ends = np.append(np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1, v.size)
    starts = np.concatenate(([0], ends[:-1]))
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def _centred_ranks(values) -> np.ndarray:
    ranks = average_ranks(values)
    ranks -= ranks.mean()
    return ranks


def _rank_pearson(rx: np.ndarray, ry: np.ndarray) -> float:
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise LengthMismatch(f"lengths differ: {x.size} vs {y.size}")
    if x.size < 3:
        raise LengthMismatch("need at least three pairs")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise ConstantVector("spearman undefined for a constant vector")
    return _rank_pearson(_centred_ranks(x), _centred_ranks(y))


@dataclass
class CorrelationMatrix:
    """Spearman rho for all 75 predictors x 28 streamflow features.

    Undefined entries (a constant column) are NaN and serialized as an
    explicit "undefined" marker, never as zero.
    """

    predictors: list[str]
    targets: list[str]
    rho: np.ndarray


def correlation_matrix(table: CatchmentTable) -> CorrelationMatrix:
    """Every entry is :func:`spearman` of its two columns, bit for bit: each
    column is ranked once and its own dot product taken once, and each pair
    takes one dot product. A constant column has zero ranks, so its entries
    are 0 / 0, NaN."""
    if len(table) < 3:
        raise LengthMismatch("need at least three catchments")
    ranks = [[_centred_ranks(c) if np.ptp(c) > 0.0 else np.zeros(len(table)) for c in block.T]
             for block in (table.predictors, table.blocks["streamflow"])]
    pred_ranks, target_ranks = ranks
    dots = np.array([[rx @ ry for ry in target_ranks] for rx in pred_ranks])
    own = [np.array([r @ r for r in block]) for block in ranks]
    with np.errstate(invalid="ignore"):
        rho = dots / np.sqrt(np.multiply.outer(*own))
    return CorrelationMatrix(list(ALL_PREDICTORS), list(FEATURE_NAMES), rho)


# -- cross-validation machinery ----------------------------------------------

def kfold_split(n: int, k: int, seed: int = 0) -> list[np.ndarray]:
    """Random partition into k folds whose sizes differ by at most one."""
    if not 1 <= k <= n:
        raise BadK(f"k must be in [1, {n}], got {k}")
    perm = substream(seed, "kfold").permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(np.sort(perm[start : start + size]))
        start += size
    return folds


def rmse(predicted, observed) -> float:
    predicted = np.asarray(predicted, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    if predicted.size != observed.size or predicted.size == 0:
        raise LengthMismatch(
            f"lengths differ or empty: {predicted.size} vs {observed.size}"
        )
    diff = predicted - observed
    return float(np.sqrt(diff @ diff / diff.size))


@dataclass
class CrossValResult:
    predictions: np.ndarray  # one prediction per record, fold-held-out
    rmse: float


def cross_validate(
    table: CatchmentTable,
    target: str,
    group: str,
    k: int = 10,
    params: ForestParams | None = None,
    seed: int = 0,
    folds: list[np.ndarray] | None = None,
) -> CrossValResult:
    """k-fold cross-validated prediction of one streamflow feature.

    Every catchment is predicted exactly once (by the forest trained without
    its fold) and the RMSE pools all catchments rather than averaging
    per-fold scores. ``folds``, when given, overrides ``k`` and the seeded
    partition; it must put each record in exactly one fold, and no fold may
    hold every record, or :class:`BadK` is raised. The group's columns and
    their ranks are sliced from the table.

    Each fold's forest is the one ``fit`` grows with the fold's seed on the
    other folds' rows, and each prediction the one its ``predict`` makes, bit
    for bit; :func:`forest.cross_predict` grows the pair's forests in kernel
    batches without building them one by one.
    """
    n = len(table)
    if folds is None:
        if not 2 <= k <= n // 2:
            raise BadK(f"k must be at least 2 and at most half the {n} records, got {k}")
        folds = kfold_split(n, k, child_seed(seed, "folds"))
    else:
        rows = np.sort(np.concatenate(folds)) if len(folds) else np.empty(0)
        if not np.array_equal(rows, np.arange(n)):
            raise BadK(f"folds must partition the {n} records, each record in one fold")
        if any(len(fold) == n for fold in folds):
            raise BadK(f"a fold holds all {n} records and leaves none to train on")
    columns = group_columns(group)
    data = DesignMatrix(columns, predictor_matrix(table, columns), target_vector(table, target),
                        table.ranks[[_COLUMN[c] for c in columns]])
    seeds = child_seeds(seed, [("cv", target, group, f) for f in range(len(folds))])
    predictions = cross_predict(data, params, folds, seeds)
    return CrossValResult(predictions=predictions, rmse=rmse(predictions, data.y))


@dataclass
class EvaluationReport:
    """Pooled RMSE matrix over (streamflow feature, predictor group) pairs,
    plus rankings, relative scores and held-out predictions."""

    targets: list[str]
    groups: list[str]
    rmse: np.ndarray  # targets x groups
    ranks: np.ndarray  # per-target permutation of 1..len(groups)
    relative_scores: np.ndarray | None  # % improvement vs static-only
    catchment_ids: list[str]
    observed: dict[str, np.ndarray]
    predicted: dict[str, np.ndarray]  # held-out predictions of the full group
    folds: list[np.ndarray]
    prediction_group: str | None


def _cv_job(shared, pair):
    table, params, seed, folds = shared
    target, group = pair
    try:
        return cross_validate(table, target, group, params=params, seed=seed, folds=folds)
    except FlowRegionError as exc:
        raise type(exc)(f"({target}, {group}): {exc}") from exc


def evaluate_all(
    table: CatchmentTable,
    params: ForestParams | None = None,
    seed: int = 0,
    k: int = 10,
    groups: tuple[str, ...] = GROUP_NAMES,
    workers: int = 1,
) -> EvaluationReport:
    """Cross-validate every (streamflow feature, predictor group) pair.

    One seeded fold partition is reused across all pairs so that RMSE
    differences between groups are not confounded by fold noise. Rank 1 is
    the lowest RMSE per target; exact ties break by canonical group order.
    Relative scores are 100 * (RMSE_S - RMSE_group) / RMSE_S when the
    static-only group is present, and NaN for a target whose RMSE_S is 0.
    Held-out predictions are kept for the most inclusive group evaluated
    (STP when present).
    """
    groups = tuple(groups)
    unknown = [g for g in groups if g not in GROUP_NAMES]
    if unknown:
        raise ValueError(f"unknown group(s): {', '.join(unknown)}")
    if len(set(groups)) != len(groups):
        raise ValueError(f"repeated group(s): {', '.join(groups)}")
    if not 2 <= k <= len(table) // 2:
        raise BadK(f"k must be at least 2 and at most half the {len(table)} records, got {k}")
    folds = kfold_split(len(table), k, child_seed(seed, "folds"))
    pairs = [(target, group) for target in FEATURE_NAMES for group in groups]
    outcomes = parallel_map(_cv_job, pairs, workers, shared=(table, params, seed, folds))

    scores = np.array([r.rmse for r in outcomes]).reshape(len(FEATURE_NAMES), len(groups))
    prediction_group = "STP" if "STP" in groups else None
    predicted = {target: r.predictions for (target, group), r in zip(pairs, outcomes)
                 if group == prediction_group}

    ranks = np.empty_like(scores, dtype=np.int64)
    for ti in range(scores.shape[0]):
        order = np.argsort(scores[ti], kind="stable")
        ranks[ti, order] = np.arange(1, len(groups) + 1)

    relative = None
    if "S" in groups:
        # undefined (NaN) for a target that the static group fits exactly
        static = scores[:, groups.index("S")][:, None]
        relative = np.full_like(scores, np.nan)
        np.divide(100.0 * (static - scores), static, out=relative,
                  where=static != 0.0)

    observed = dict(zip(FEATURE_NAMES, table.blocks["streamflow"].T.copy()))
    return EvaluationReport(
        targets=list(FEATURE_NAMES),
        groups=list(groups),
        rmse=scores,
        ranks=ranks,
        relative_scores=relative,
        catchment_ids=list(table.ids),
        observed=observed,
        predicted=predicted,
        folds=folds,
        prediction_group=prediction_group,
    )


def _importance_job(shared, target):
    table, params, seed = shared
    data = DesignMatrix(list(ALL_PREDICTORS), table.predictors, target_vector(table, target),
                        table.ranks)
    model = fit(data, params, seed=child_seed(seed, "imp", target))
    return permutation_importance(model, data, seed=child_seed(seed, "perm", target))


def importance_all(
    table: CatchmentTable,
    params: ForestParams | None = None,
    seed: int = 0,
    workers: int = 1,
) -> dict[str, ImportanceReport]:
    """Permutation importance of all 75 predictors for each streamflow
    feature. Fewer than two catchments raise :class:`LengthMismatch` before
    any forest grows."""
    if len(table) < 2:
        raise LengthMismatch(f"importance needs at least two catchments, got {len(table)}")
    reports = parallel_map(_importance_job, FEATURE_NAMES, workers,
                           shared=(table, params, seed))
    return dict(zip(FEATURE_NAMES, reports))


# -- distribution summaries ---------------------------------------------------

@dataclass
class SummaryRow:
    variable: str
    feature: str
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float


def feature_summary(table: CatchmentTable) -> list[SummaryRow]:
    """Plot-ready distribution summaries of every feature per variable kind."""
    if not len(table):
        raise LengthMismatch("need at least one record")
    rows = []
    for variable in VARIABLE_KINDS:
        for feature, col in zip(FEATURE_NAMES, table.blocks[variable].T):
            q1, med, q3 = np.quantile(col, [0.25, 0.5, 0.75])
            rows.append(SummaryRow(
                variable=variable, feature=feature,
                minimum=float(col.min()), q1=float(q1), median=float(med),
                q3=float(q3), maximum=float(col.max()), mean=float(col.mean()),
            ))
    return rows


# -- report serialization: every table through engine.write_table -------------

def write_correlations(path, matrix: CorrelationMatrix) -> None:
    """Long-format ``predictor,target,rho`` rows; a NaN rho is written ``undefined``."""
    write_table(path, ("predictor", "target", "rho"), (
        (predictor, target, "undefined" if np.isnan(v) else v)
        for predictor, row in zip(matrix.predictors, matrix.rho.tolist())
        for target, v in zip(matrix.targets, row)
    ))


def write_importance(path, reports: dict[str, ImportanceReport]) -> None:
    """``target,predictor,score,rank`` rows, targets in canonical feature order."""
    write_table(path, ("target", "predictor", "score", "rank"), (
        (target, *row)
        for target in FEATURE_NAMES
        for row in zip(reports[target].predictors, reports[target].scores.tolist(),
                       reports[target].ranks.tolist())
    ))


def _json_rows(matrix: np.ndarray) -> list[list[float | None]]:
    """Rows of floats for JSON, with NaN (undefined) as null."""
    return [[None if np.isnan(v) else float(v) for v in row] for row in matrix]


def write_evaluation(path, report: EvaluationReport) -> None:
    payload = {
        "targets": report.targets,
        "groups": report.groups,
        "rmse": _json_rows(report.rmse),
        "ranks": [[int(v) for v in row] for row in report.ranks],
        "relative_scores": (
            None if report.relative_scores is None
            else _json_rows(report.relative_scores)
        ),
        "prediction_group": report.prediction_group,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_pred_vs_obs(path, report: EvaluationReport) -> None:
    """``target,catchment_id,observed,predicted`` rows of each predicted target."""
    write_table(path, ("target", "catchment_id", "observed", "predicted"), (
        (target, *row)
        for target in report.targets if target in report.predicted
        for row in zip(report.catchment_ids, report.observed[target].tolist(),
                       report.predicted[target].tolist())
    ))


def write_summaries(path, rows: list[SummaryRow]) -> None:
    """``variable,feature,min,q1,median,q3,max,mean`` rows."""
    write_table(path, ("variable", "feature", "min", "q1", "median", "q3", "max", "mean"), (
        (r.variable, r.feature, r.minimum, r.q1, r.median, r.q3, r.maximum, r.mean)
        for r in rows
    ))
