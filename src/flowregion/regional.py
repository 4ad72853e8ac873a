"""Regionalization analyses: correlation screening, cross-validated prediction,
importance rankings and feature summaries over catchments.

Predictor groups combine three column blocks: S = the 19 static attributes,
T = the 28 temperature features, P = the 28 precipitation features. The seven
groups S, T, P, ST, SP, TP, STP are evaluated against each of the 28
streamflow features under a shared k-fold partition, with pooled RMSE.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace

import numpy as np

from .dataio import ANALYSIS_VARIABLES, STATIC_ATTRIBUTES, CatchmentRecord
from .engine import FEATURE_NAMES, parallel_map
from .errors import BadK, ConstantVector, FlowRegionError, LengthMismatch
from .forest import (
    DesignMatrix,
    ForestParams,
    ImportanceReport,
    fit,
    permutation_importance,
    predict,
)
from .seeding import child_seed, substream

logger = logging.getLogger(__name__)

#: Canonical group order; also the rank tie-break order.
GROUP_NAMES = ("S", "T", "P", "ST", "SP", "TP", "STP")

_BLOCKS = {"S": "static", "T": "temperature", "P": "precipitation"}

TEMPERATURE_PREDICTORS = tuple(f"temperature_{f}" for f in FEATURE_NAMES)
PRECIPITATION_PREDICTORS = tuple(f"precipitation_{f}" for f in FEATURE_NAMES)

#: All 75 potential predictors in canonical order.
ALL_PREDICTORS = STATIC_ATTRIBUTES + TEMPERATURE_PREDICTORS + PRECIPITATION_PREDICTORS


def group_columns(group: str) -> list[str]:
    """Predictor column names of one group, in canonical order."""
    if group not in GROUP_NAMES:
        raise ValueError(f"unknown predictor group {group!r}")
    cols: list[str] = []
    for letter in group:
        block = _BLOCKS[letter]
        if block == "static":
            cols.extend(STATIC_ATTRIBUTES)
        elif block == "temperature":
            cols.extend(TEMPERATURE_PREDICTORS)
        else:
            cols.extend(PRECIPITATION_PREDICTORS)
    return cols


def predictor_matrix(records: list[CatchmentRecord], columns: list[str]) -> np.ndarray:
    """Assemble the catchments x predictors matrix for the given columns."""
    rows = np.empty((len(records), len(columns)))
    blocks: dict[str, np.ndarray] = {}  # variable -> catchments x 28 features
    for j, col in enumerate(columns):
        if col in STATIC_ATTRIBUTES:
            rows[:, j] = [r.static[col] for r in records]
        else:
            variable, _, feature = col.partition("_")
            if variable not in blocks:
                blocks[variable] = np.array(
                    [r.features(variable).values for r in records]
                ).reshape(len(records), len(FEATURE_NAMES))
            rows[:, j] = blocks[variable][:, FEATURE_NAMES.index(feature)]
    return rows


def target_vector(records: list[CatchmentRecord], feature: str) -> np.ndarray:
    if feature not in FEATURE_NAMES:
        raise ValueError(f"unknown streamflow feature {feature!r}")
    return np.array([r.streamflow[feature] for r in records])


# -- correlation analysis ----------------------------------------------------

def average_ranks(values) -> np.ndarray:
    """Average-fractional ranks (1-based); ties get the mean tied position."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    sorted_vals = v[order]
    ranks = np.empty(v.size)
    start = 0
    for i in range(1, v.size + 1):
        if i == v.size or sorted_vals[i] != sorted_vals[start]:
            ranks[order[start:i]] = 0.5 * (start + i - 1) + 1.0
            start = i
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


def correlation_matrix(records: list[CatchmentRecord]) -> CorrelationMatrix:
    if len(records) < 3:
        raise LengthMismatch("need at least three catchments")
    preds = predictor_matrix(records, list(ALL_PREDICTORS))
    targets = np.column_stack([target_vector(records, f) for f in FEATURE_NAMES])
    # each column is ranked once; a constant column (None) leaves NaN entries
    pred_ranks = [_centred_ranks(c) if np.ptp(c) > 0.0 else None for c in preds.T]
    target_ranks = [_centred_ranks(c) if np.ptp(c) > 0.0 else None for c in targets.T]
    rho = np.full((len(ALL_PREDICTORS), len(FEATURE_NAMES)), np.nan)
    for i, rx in enumerate(pred_ranks):
        for j, ry in enumerate(target_ranks):
            if rx is not None and ry is not None:
                rho[i, j] = _rank_pearson(rx, ry)
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
    records: list[CatchmentRecord],
    target: str,
    group: str,
    k: int = 10,
    params: ForestParams | None = None,
    seed: int = 0,
    folds: list[np.ndarray] | None = None,
) -> CrossValResult:
    """k-fold cross-validated prediction of one streamflow feature.

    Every catchment is predicted exactly once (by the model trained without
    its fold) and the RMSE pools all catchments rather than averaging
    per-fold scores.
    """
    if folds is None:
        if len(records) < 2 * k:
            raise BadK(f"need at least {2 * k} records for k={k}")
        folds = kfold_split(len(records), k, child_seed(seed, "folds"))
    columns = group_columns(group)
    data = DesignMatrix(columns, predictor_matrix(records, columns),
                        target_vector(records, target))
    predictions = np.empty(len(records))
    all_rows = np.arange(len(records))
    for fold_index, fold in enumerate(folds):
        train = np.setdiff1d(all_rows, fold, assume_unique=True)
        # ranks restricted to the training rows keep their order and ties
        model = fit(
            DesignMatrix(columns, data.X[train], data.y[train], data.ranks[:, train]),
            params,
            seed=child_seed(seed, "cv", target, group, fold_index),
        )
        predictions[fold] = predict(model, data.X[fold])
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
    records, params, seed, folds = shared
    target, group = pair
    try:
        result = cross_validate(records, target, group, params=params,
                                seed=seed, folds=folds)
    except FlowRegionError as exc:
        raise type(exc)(f"({target}, {group}): {exc}") from exc
    return target, group, result


def evaluate_all(
    records: list[CatchmentRecord],
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
    if len(records) < 2 * k:
        raise BadK(f"need at least {2 * k} records for k={k}")
    folds = kfold_split(len(records), k, child_seed(seed, "folds"))
    pairs = [(target, group) for target in FEATURE_NAMES for group in groups]
    outcomes = parallel_map(_cv_job, pairs, workers,
                            shared=(records, params, seed, folds))

    scores = np.empty((len(FEATURE_NAMES), len(groups)))
    prediction_group = "STP" if "STP" in groups else None
    predicted: dict[str, np.ndarray] = {}
    by_pair = {(t, g): r for t, g, r in outcomes}
    for ti, target in enumerate(FEATURE_NAMES):
        for gi, group in enumerate(groups):
            result = by_pair[(target, group)]
            scores[ti, gi] = result.rmse
            if group == prediction_group:
                predicted[target] = result.predictions

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

    observed = {t: target_vector(records, t) for t in FEATURE_NAMES}
    return EvaluationReport(
        targets=list(FEATURE_NAMES),
        groups=list(groups),
        rmse=scores,
        ranks=ranks,
        relative_scores=relative,
        catchment_ids=[r.catchment_id for r in records],
        observed=observed,
        predicted=predicted,
        folds=folds,
        prediction_group=prediction_group,
    )


def _importance_job(shared, target):
    records, design, params, seed = shared
    data = replace(design, y=target_vector(records, target))
    model = fit(data, params, seed=child_seed(seed, "imp", target))
    report = permutation_importance(model, data, seed=child_seed(seed, "perm", target))
    return target, report


def importance_all(
    records: list[CatchmentRecord],
    params: ForestParams | None = None,
    seed: int = 0,
    workers: int = 1,
) -> dict[str, ImportanceReport]:
    """Permutation importance of all 75 predictors for each streamflow feature."""
    # one predictor matrix and one ranking serve every target
    columns = list(ALL_PREDICTORS)
    design = DesignMatrix(columns, predictor_matrix(records, columns),
                          target_vector(records, FEATURE_NAMES[0]))
    return dict(parallel_map(_importance_job, FEATURE_NAMES, workers,
                             shared=(records, design, params, seed)))


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


def feature_summary(records: list[CatchmentRecord]) -> list[SummaryRow]:
    """Plot-ready distribution summaries of every feature per variable kind."""
    if not records:
        raise LengthMismatch("need at least one record")
    rows = []
    for variable in ANALYSIS_VARIABLES:
        matrix = np.array(
            [[r.features(variable)[f] for f in FEATURE_NAMES] for r in records]
        )
        for j, feature in enumerate(FEATURE_NAMES):
            col = matrix[:, j]
            q1, med, q3 = np.quantile(col, [0.25, 0.5, 0.75])
            rows.append(SummaryRow(
                variable=variable, feature=feature,
                minimum=float(col.min()), q1=float(q1), median=float(med),
                q3=float(q3), maximum=float(col.max()), mean=float(col.mean()),
            ))
    return rows


# -- report serialization -----------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


def write_correlations(path, matrix: CorrelationMatrix) -> None:
    """Long-format predictor,target,rho with an explicit undefined marker."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("predictor,target,rho\n")
        for i, predictor in enumerate(matrix.predictors):
            for j, target in enumerate(matrix.targets):
                v = matrix.rho[i, j]
                marker = "undefined" if np.isnan(v) else _fmt(v)
                fh.write(f"{predictor},{target},{marker}\n")


def write_importance(path, reports: dict[str, ImportanceReport]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("target,predictor,score,rank\n")
        for target in FEATURE_NAMES:
            report = reports[target]
            for predictor, score, rank in zip(report.predictors, report.scores,
                                              report.ranks):
                fh.write(f"{target},{predictor},{_fmt(score)},{int(rank)}\n")


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


def read_evaluation(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_pred_vs_obs(path, report: EvaluationReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("target,catchment_id,observed,predicted\n")
        for target in report.targets:
            if target not in report.predicted:
                continue
            obs = report.observed[target]
            pred = report.predicted[target]
            for cid, o, p in zip(report.catchment_ids, obs, pred):
                fh.write(f"{target},{cid},{_fmt(o)},{_fmt(p)}\n")


def write_summaries(path, rows: list[SummaryRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("variable,feature,min,q1,median,q3,max,mean\n")
        for r in rows:
            fh.write(
                f"{r.variable},{r.feature},{_fmt(r.minimum)},{_fmt(r.q1)},"
                f"{_fmt(r.median)},{_fmt(r.q3)},{_fmt(r.maximum)},{_fmt(r.mean)}\n"
            )
