"""Seeded regression random forest with out-of-bag error and permutation importance.

Trees are grown on bootstrap samples with exhaustive variance-reduction splits
over ``mtry`` candidate predictors per node; candidate thresholds are the
midpoints between consecutive distinct sorted values. Equal-gain ties prefer
the lower predictor index, then the lower threshold. Every stochastic step
draws from a substream keyed on (seed, tree index), so each tree is
bit-identical whatever was grown before it.

Growth and descent run in a compiled kernel (``_tree.c``, built on first use
by :mod:`flowregion.native`). Python draws each tree's bootstrap sample and
its per-node candidate orders from the tree's generator; the kernel grows the
tree depth-first, left child first. At each node it sorts the node's rows by
each candidate's column ranks (the dense rank of every value within its
column, computed once per design matrix): a stable sort, so tied values keep
the node's row order, and the children inherit the split predictor's order.
Only the order and equality of ranks matter, so the ranks of a larger matrix
restricted to a subset of its rows serve that subset. The split arithmetic
follows numpy step for step, so the trees are bit-identical to a numpy grower
(kept in the tests as the reference).

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

import ctypes
import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from . import native
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
    """Observations x named predictors plus an aligned target vector.

    ``ranks`` (predictors x rows) holds integer keys whose order and equality
    within each column are those of X's values; the dense ranks of X when not
    given. The ranks of a larger matrix, restricted to these rows, also serve.
    """

    columns: list[str]
    X: np.ndarray
    y: np.ndarray
    ranks: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
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
        if self.ranks is None:
            self.ranks = _dense_ranks(self.X)
        self.ranks = np.ascontiguousarray(self.ranks, dtype=np.uint32)
        if self.ranks.shape != self.X.T.shape:
            raise ValueError("ranks must be laid out predictors x rows")


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


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Dense rank of every value within its column, laid out predictors x rows."""
    cols = X.T
    order = cols.argsort(axis=1)
    ordered = np.take_along_axis(cols, order, axis=1)
    steps = np.zeros(cols.shape, dtype=np.uint32)
    steps[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps.cumsum(axis=1, dtype=np.uint32), axis=1)
    return ranks


@functools.lru_cache(maxsize=None)
def _kernel() -> ctypes.CDLL:
    lib = native.load()
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.grow_tree.argtypes = [ptr, ptr, ptr, i64, i64, ptr, ptr, i64, i64, i64,
                              ptr, ptr, ptr, ptr, ptr]
    lib.grow_tree.restype = i64
    lib.descend.argtypes = [ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, ptr, ptr, i64, ptr]
    lib.descend.restype = None
    return lib


def _grow(X, ranks, y, mtry, min_node_size, rng) -> RegressionTree:
    """One tree on a bootstrap sample; ``X``, ``ranks`` and ``y`` must be
    contiguous float64, uint32 and float64 arrays of matching shapes."""
    n, p = X.shape
    inbag = rng.integers(0, n, size=n)
    oob = np.flatnonzero(np.bincount(inbag, minlength=n) == 0)
    size = 2 * n - 1
    feature = np.empty(size, dtype=np.int32)
    threshold = np.empty(size)
    left = np.empty(size, dtype=np.int32)
    right = np.empty(size, dtype=np.int32)
    value = np.empty(size)
    # one row of candidate orders per node that tries to split; K rows drawn
    # at once are the rows of, and leave the generator as, K calls to
    # rng.permutation(p). Every leaf keeps at least min_node_size rows and a
    # leaf that tried to split twice that, so fewer than n // min_node_size
    # nodes try.
    draws = rng.permuted(np.tile(np.arange(p, dtype=np.int64), (n // min_node_size, 1)),
                         axis=1)
    count = _kernel().grow_tree(
        X.ctypes.data, ranks.ctypes.data, y.ctypes.data, n, p, inbag.ctypes.data,
        draws.ctypes.data, len(draws), mtry, min_node_size, feature.ctypes.data,
        threshold.ctypes.data, left.ctypes.data, right.ctypes.data, value.ctypes.data)
    if count == -2:
        raise MemoryError("tree kernel could not allocate its workspace")
    if count < 0:
        raise RuntimeError("tree kernel ran out of candidate draws")
    return RegressionTree(
        feature=feature[:count].copy(),
        threshold=threshold[:count].copy(),
        left=left[:count].copy(),
        right=right[:count].copy(),
        value=value[:count].copy(),
        inbag=inbag,
        oob=oob,
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
    if params.min_node_size < 1:
        raise ValueError(f"min_node_size must be at least 1, got {params.min_node_size}")

    trees = [
        _grow(data.X, data.ranks, data.y, mtry, params.min_node_size,
              substream(seed, _TREE_STREAM, t))
        for t in range(params.n_trees)
    ]
    return ForestModel(trees=trees, columns=list(data.columns), params=params,
                       seed=seed, n_rows=n)


def _descend(tree: RegressionTree, X: np.ndarray, cols=None,
             perms=None) -> np.ndarray:
    """Leaf value reached by each row of the contiguous float64 array X.

    Given k predictor indices ``cols`` and a k x n array ``perms`` of row
    permutations, predicts k permuted copies of X in one descent instead:
    row r of copy c reads predictor ``cols[c]`` from row ``perms[c, r]`` and
    every other predictor from row r. The result is then k x n.
    """
    n, p = X.shape
    k = 0 if cols is None else len(cols)
    if k:
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        perms = np.ascontiguousarray(perms, dtype=np.int64)
        if perms.shape != (k, n):
            raise ValueError(f"perms must be {k} x {n}, got {perms.shape}")
    out = np.empty((k, n) if k else n)
    _kernel().descend(
        tree.feature.ctypes.data, tree.threshold.ctypes.data, tree.left.ctypes.data,
        tree.right.ctypes.data, tree.value.ctypes.data, X.ctypes.data, n, p,
        cols.ctypes.data if k else None, perms.ctypes.data if k else None, k,
        out.ctypes.data)
    return out


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
        total += _descend(tree, X)
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
        sums[tree.oob] += _descend(tree, data.X[tree.oob])
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
        base = _descend(tree, Xo)
        mse0 = float((base - yo) @ (base - yo)) / o.size
        used = np.unique(tree.feature[tree.feature >= 0])
        if used.size == 0:
            continue
        perms = np.stack([
            substream(seed, _PERM_STREAM, t, int(j)).permutation(o.size)
            for j in used
        ])
        for j, pred in zip(used, _descend(tree, Xo, used, perms)):
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
