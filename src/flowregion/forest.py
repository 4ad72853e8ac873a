"""Seeded regression random forest with out-of-bag error and permutation importance.

Trees are grown on bootstrap samples with exhaustive variance-reduction splits
over ``mtry`` candidate predictors per node; candidate thresholds are the
midpoints between consecutive distinct sorted values. Equal-gain ties prefer
the lower predictor index, then the lower threshold. Every stochastic step
draws from a substream keyed on (seed, tree index), so each tree is
bit-identical whatever was grown before it.

Each node sorts integer keys instead of floats. Once per fit every value is
replaced by its dense rank within its column, shifted into the high 32 bits;
a node ORs each row's position into the low bits. The keys are unique, so any
sort of them gives the stable order of the values: the low word is the sort
order and equal high words mark tied values.

Permutation importance follows the unnormalized per-tree scheme: for each
tree the out-of-bag mean square error is compared against the error after
shuffling one predictor within that tree's out-of-bag rows, and the
differences are averaged over trees. Predictors a tree never splits on leave
its predictions unchanged, so their per-tree difference is exactly zero and
the shuffle is skipped; per-(tree, predictor) substreams keep the skipped
draws from shifting any other permutation. The permuted copies of a tree's
out-of-bag block are never built: one descent of the tree reads each copy's
permuted predictor through that copy's row permutation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    ColumnMismatch,
    DegenerateTarget,
    EmptyPredictors,
    NoOobCoverage,
    TooShort,
)
from .seeding import substream

logger = logging.getLogger(__name__)

_TREE_STREAM = "tree"
_PERM_STREAM = "perm"


@dataclass
class DesignMatrix:
    """Observations x named predictors plus an aligned target vector."""

    columns: list[str]
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("X must be two-dimensional")
        if self.X.shape[0] != self.y.size:
            raise ValueError("X and y row counts differ")
        if self.X.shape[1] != len(self.columns):
            raise ValueError("column names do not match X width")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")
        if self.X.shape[0] < 2:
            raise ValueError("need at least two rows")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValueError("design matrix contains non-finite entries")


@dataclass
class ForestParams:
    n_trees: int = 2000
    mtry: int | None = None  # None -> max(1, p // 3)
    min_node_size: int = 5


@dataclass
class RegressionTree:
    feature: np.ndarray  # split predictor per node, -1 at leaves
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # leaf means (NaN at internal nodes)
    inbag: np.ndarray  # the n bootstrap draws
    oob: np.ndarray  # rows never drawn, ascending


@dataclass
class ForestModel:
    trees: list[RegressionTree]
    columns: list[str]
    params: ForestParams
    seed: int
    n_rows: int


@dataclass
class ImportanceReport:
    predictors: list[str]
    scores: np.ndarray
    ranks: np.ndarray  # permutation of 1..p, 1 = most important


_LOW_WORD = np.uint64(0xFFFFFFFF)
_HIGH_SHIFT = np.uint64(32)


def _rank_keys(X: np.ndarray) -> np.ndarray:
    """Dense rank of every value within its column, shifted into the high word.

    Laid out predictors x rows, so a node gathers its candidates' keys as rows.
    """
    cols = X.T
    order = cols.argsort(axis=1)
    ordered = np.take_along_axis(cols, order, axis=1)
    steps = np.zeros(cols.shape, dtype=np.uint64)
    steps[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    keys = np.empty_like(steps)
    np.put_along_axis(keys, order, steps.cumsum(axis=1) << _HIGH_SHIFT, axis=1)
    return keys


def _inverse_sizes(cache: dict, m: int) -> tuple[np.ndarray, np.ndarray]:
    inv = cache.get(m)
    if inv is None:
        sizes = np.arange(1, m, dtype=np.float64)
        inv = (1.0 / sizes, 1.0 / sizes[::-1])
        cache[m] = inv
    return inv


def _grow_tree(X, keys, y, mtry, min_node_size, rng, size_cache):
    n, p = X.shape
    inbag = rng.integers(0, n, size=n)
    oob = np.flatnonzero(np.bincount(inbag, minlength=n) == 0)
    Xb = X[inbag]
    kb = keys[:, inbag]
    yb = y[inbag]
    positions = np.arange(n, dtype=np.uint64)

    feature = [-1]
    threshold = [np.nan]
    left = [-1]
    right = [-1]
    value = [np.nan]

    n_cand = min(mtry, p)
    stack = [(0, np.arange(n))]
    while stack:
        node, rows = stack.pop()
        ys = yb[rows]
        m = rows.size
        total = float(ys.sum())
        if m < 2 * min_node_size or ys.max() == ys.min():
            value[node] = total / m
            continue
        cand = rng.permutation(p)[:n_cand]
        cand.sort()
        # unique keys: any sort gives the stable order of the values, with
        # ties ordered by position in rows
        ks = kb[cand].take(rows, axis=1)
        ks |= positions[:m]
        ks.sort(axis=1)
        order = (ks & _LOW_WORD).astype(np.intp)
        ranks = ks >> _HIGH_SHIFT
        csum = ys[order].cumsum(axis=1)
        inv_left, inv_right = _inverse_sizes(size_cache, m)
        s_left = csum[:, :-1]
        s_right = total - s_left
        gain = s_left * s_left * inv_left + s_right * s_right * inv_right
        gain[ranks[:, 1:] == ranks[:, :-1]] = -np.inf
        if min_node_size > 1:
            gain[:, : min_node_size - 1] = -np.inf
            gain[:, m - min_node_size :] = -np.inf
        # candidates are rows, so the C order is feature-major: ties resolve
        # to the lower predictor index, then the lower threshold
        best = int(gain.argmax())
        j, i = divmod(best, m - 1)
        if gain[j, i] == -np.inf:
            value[node] = total / m
            continue

        # positions 0..i of the j-th sort order are exactly the rows <= thr
        rows_sorted = rows[order[j]]
        f = int(cand[j])
        thr = 0.5 * (Xb[rows_sorted[i], f] + Xb[rows_sorted[i + 1], f])
        left_idx = len(feature)
        feature.extend((-1, -1))
        threshold.extend((np.nan, np.nan))
        left.extend((-1, -1))
        right.extend((-1, -1))
        value.extend((np.nan, np.nan))
        feature[node] = f
        threshold[node] = float(thr)
        left[node] = left_idx
        right[node] = left_idx + 1
        stack.append((left_idx + 1, rows_sorted[i + 1 :]))
        stack.append((left_idx, rows_sorted[: i + 1]))

    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
        inbag=inbag.astype(np.int64),
        oob=oob.astype(np.int64),
    )


def fit(data: DesignMatrix, params: ForestParams | None = None, seed: int = 0) -> ForestModel:
    """Fit a random forest; fully reproducible from (data, params, seed)."""
    params = params or ForestParams()
    n, p = data.X.shape
    if p == 0:
        raise EmptyPredictors("no predictor columns")
    if np.ptp(data.y) == 0.0:
        raise DegenerateTarget("target is constant")
    if n < 2 * params.min_node_size:
        raise TooShort(
            f"need at least {2 * params.min_node_size} rows, got {n}"
        )
    mtry = params.mtry if params.mtry is not None else max(1, p // 3)
    if not 1 <= mtry <= p:
        raise ValueError(f"mtry must be in [1, {p}], got {mtry}")

    keys = _rank_keys(data.X)
    size_cache: dict = {}
    trees = [
        _grow_tree(data.X, keys, data.y, mtry, params.min_node_size,
                   substream(seed, _TREE_STREAM, t), size_cache)
        for t in range(params.n_trees)
    ]
    return ForestModel(trees=trees, columns=list(data.columns), params=params,
                       seed=seed, n_rows=n)


def _tree_predict(tree: RegressionTree, X: np.ndarray, cols=None,
                  perms=None) -> np.ndarray:
    """Leaf value reached by each row of X.

    Given k predictor indices ``cols`` and a k x n array ``perms`` of row
    permutations, predicts k permuted copies of X in one descent instead:
    row r of copy c reads predictor ``cols[c]`` from row ``perms[c, r]`` and
    every other predictor from row r. The result is then k x n.
    """
    n = X.shape[0]
    feature, threshold = tree.feature, tree.threshold
    left, right, value = tree.left, tree.right, tree.value
    if n == 0:
        return np.empty(0)
    if n < 64 and cols is None:
        # scalar descent beats vectorized traversal for small batches
        lists = getattr(tree, "_lists", None)
        if lists is None:
            lists = (feature.tolist(), threshold.tolist(), left.tolist(),
                     right.tolist(), value.tolist())
            tree._lists = lists
        fl, tl, ll, rl, vl = lists
        out = np.empty(n)
        for i in range(n):
            row = X[i]
            node = 0
            f = fl[node]
            while f >= 0:
                node = ll[node] if row[f] <= tl[node] else rl[node]
                f = fl[node]
            out[i] = vl[node]
        return out
    # rows are flat offsets into X: a 1-d take is cheaper than X[rows, cols]
    p = X.shape[1]
    flat = X.ravel()
    row_off = np.arange(0, n * p, p)
    if cols is not None:
        copy_col = np.repeat(cols, n)
        perm_off = perms.ravel() * p
        row_off = np.tile(row_off, len(cols))
    nodes = np.zeros(row_off.size, dtype=np.int64)
    active = np.flatnonzero(feature[nodes] >= 0)
    while active.size:
        cur = nodes[active]
        f = feature[cur]
        off = row_off[active]
        if cols is not None:
            off = np.where(f == copy_col[active], perm_off[active], off)
        go_left = flat.take(off + f) <= threshold[cur]
        nodes[active] = np.where(go_left, left[cur], right[cur])
        active = active[feature[nodes[active]] >= 0]
    out = value[nodes]
    return out if cols is None else out.reshape(len(cols), n)


def predict(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Per-row mean of per-tree leaf predictions, accumulated in tree order."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.columns):
        raise ColumnMismatch(
            f"expected {len(model.columns)} predictor columns, got "
            f"{X.shape[1] if X.ndim == 2 else 'non-2d input'}"
        )
    total = np.zeros(X.shape[0])
    for tree in model.trees:
        total += _tree_predict(tree, X)
    return total / len(model.trees)


def oob_error(model: ForestModel, data: DesignMatrix) -> float:
    """Mean square error of out-of-bag ensemble predictions on the training data.

    Each row is predicted only by trees for which it is out-of-bag; rows that
    are in-bag everywhere are skipped with a log message.
    """
    _check_training_data(model, data)
    n = data.X.shape[0]
    sums = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    for tree in model.trees:
        if tree.oob.size == 0:
            continue
        sums[tree.oob] += _tree_predict(tree, data.X[tree.oob])
        counts[tree.oob] += 1
    covered = counts > 0
    if not covered.any():
        raise NoOobCoverage("no row has out-of-bag predictions")
    skipped = int(n - covered.sum())
    if skipped:
        logger.warning("%d row(s) never out-of-bag; skipped in the OOB error", skipped)
    resid = sums[covered] / counts[covered] - data.y[covered]
    return float(resid @ resid / covered.sum())


def permutation_importance(
    model: ForestModel, data: DesignMatrix, seed: int = 0
) -> ImportanceReport:
    """Unnormalized permutation importance, averaged over trees.

    For each tree: the out-of-bag MSE before and after permuting each
    predictor within that tree's out-of-bag rows; the difference is averaged
    over all trees (no normalization). Rankings sort descending by score;
    ties break by column order.
    """
    _check_training_data(model, data)
    p = len(model.columns)
    diffs = np.zeros(p)
    trees_used = 0
    for t, tree in enumerate(model.trees):
        o = tree.oob
        if o.size == 0:
            continue
        trees_used += 1
        Xo = data.X[o]
        yo = data.y[o]
        base = _tree_predict(tree, Xo)
        mse0 = float((base - yo) @ (base - yo)) / o.size
        used = np.unique(tree.feature[tree.feature >= 0])
        if used.size == 0:
            continue
        perms = np.stack([
            substream(seed, _PERM_STREAM, t, int(j)).permutation(o.size)
            for j in used
        ])
        for j, pred in zip(used, _tree_predict(tree, Xo, used, perms)):
            mse_j = float((pred - yo) @ (pred - yo)) / o.size
            diffs[j] += mse_j - mse0
    if trees_used == 0:
        raise NoOobCoverage("no tree has out-of-bag rows")
    scores = diffs / trees_used
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(p, dtype=np.int64)
    ranks[order] = np.arange(1, p + 1)
    return ImportanceReport(predictors=list(model.columns), scores=scores, ranks=ranks)


def _check_training_data(model: ForestModel, data: DesignMatrix) -> None:
    if list(data.columns) != list(model.columns):
        raise ColumnMismatch("data columns differ from training columns")
    if data.X.shape[0] != model.n_rows:
        raise ColumnMismatch(
            f"expected the {model.n_rows} training rows, got {data.X.shape[0]}"
        )
