"""Seeded regression random forest with out-of-bag error and permutation importance.

Trees are grown on bootstrap samples with exhaustive variance-reduction splits
over ``mtry`` candidate predictors per node; candidate thresholds are the
midpoints between consecutive distinct sorted values. Equal-gain ties prefer
the lower predictor index, then the lower threshold. Every stochastic step
draws from a substream keyed on (seed, tree index), so each tree is
bit-identical whatever was grown before it.

Growth and descent run in the compiled kernel ``_tree.c``, loaded by
:func:`flowregion.native.kernel`. The PCG64 states of a forest's trees are
computed by one kernel call (``seeding._stream_states``, which gives every
fold's trees of a cross-validation pair at once), and one more grows every
tree into the forest's single node store (:class:`TreeStore`) and lists its
out-of-bag rows. The kernel draws from each tree's state as numpy's
``Generator`` would: the bootstrap sample as ``integers(0, n, size=n)``, then
one ``permutation(p)`` per node that tries to split, as the node is reached,
whose first ``mtry`` entries are the node's candidates. A tree may be
restricted to some rows of the design matrix: its sample is drawn from those
rows, and it grows as on a matrix of only those rows. One kernel entry,
``descend_forest``, reaches every leaf: one call descends every tree for
:func:`predict` or :func:`oob_error`, summing in tree order, and
:func:`permutation_importance` makes one call per tree.
``ForestModel.trees`` are views into that store. :func:`cross_predict`
builds no model: it grows every fold's trees, each restricted to the rows
outside its fold, in batches that may span folds, and after each batch one
descent adds each tree's predictions of its fold's rows into running sums.

The kernel grows each tree depth-first, left child first. At each node it
sorts the node's rows by each candidate's column ranks (the dense rank of
every value within its column, computed once per design matrix): a stable
sort, so tied values keep the node's row order, and the children inherit the
split predictor's order. Only the order and equality of ranks matter, so the
ranks of a larger matrix restricted to a subset of its rows serve that
subset, and a tree restricted to rows reads the full matrix's ranks at those
rows. The split arithmetic follows numpy step for step, so the trees are
bit-identical to a numpy grower (kept in the tests as the reference).

Permutation importance follows the unnormalized per-tree scheme: for each
tree the out-of-bag mean square error is compared against the error after
shuffling one predictor within that tree's out-of-bag rows, and the
differences are averaged over trees. Predictors a tree never splits on leave
its predictions unchanged, so their per-tree difference is exactly zero and
the shuffle is skipped; per-(tree, predictor) substreams keep the skipped
draws from shifting any other permutation. The kernel entry ``permutations``
draws a tree's shuffles, each numpy's ``permutation(m)`` from its
substream's state. One kernel call per tree returns
its out-of-bag predictions and those of every permuted copy, so only one
tree's permutations are held at a time. The copies are never built: the
kernel copies each out-of-bag row once into a scratch row, then swaps each
copy's permuted value in and back out around that copy's descent.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import native, seeding
from .errors import (
    ColumnMismatch,
    DegenerateTarget,
    EmptyPredictors,
    NoOobCoverage,
    TooShort,
)

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
        if max(self.X.shape) >= 1 << 32:
            raise ValueError("the tree kernel draws rows and predictors as 32-bit integers")
        if self.ranks is None:
            self.ranks = dense_ranks(self.X)
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
class TreeStore:
    """Every tree of a forest, packed end to end.

    Tree t's nodes are entries ``node_start[t]:node_start[t + 1]`` of the node
    arrays (its child indices count from its own first node), its bootstrap
    draws lead row t of ``inbag`` (rows as wide as the largest sample) and its
    out-of-bag rows are entries ``oob_start[t]:oob_start[t + 1]`` of ``oob``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    node_start: np.ndarray
    inbag: np.ndarray
    oob: np.ndarray
    oob_start: np.ndarray

    def trees(self) -> list[RegressionTree]:
        """One :class:`RegressionTree` of views into the store per tree."""
        nodes, oob = self.node_start.tolist(), self.oob_start.tolist()
        return [
            RegressionTree(self.feature[a:b], self.threshold[a:b], self.left[a:b],
                           self.right[a:b], self.value[a:b], inbag, self.oob[c:d])
            for a, b, c, d, inbag in zip(nodes, nodes[1:], oob, oob[1:], self.inbag)
        ]


@dataclass
class ForestModel:
    trees: list[RegressionTree]  # views into ``store``; the bench tracer reads them
    columns: list[str]
    params: ForestParams
    seed: int
    n_rows: int
    store: TreeStore = field(repr=False)


@dataclass
class ImportanceReport:
    predictors: list[str]
    scores: np.ndarray
    ranks: np.ndarray  # permutation of 1..p, 1 = most important


def dense_ranks(X: np.ndarray) -> np.ndarray:
    """Dense rank of every value within its column, laid out predictors x rows."""
    cols = X.T
    order = cols.argsort(axis=1)
    ordered = np.take_along_axis(cols, order, axis=1)
    steps = np.zeros(cols.shape, dtype=np.uint32)
    steps[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps.cumsum(axis=1, dtype=np.uint32), axis=1)
    return ranks


#: the trees that cross_predict grows and holds at once
_BATCH = 16


def _grow_forest(X, ranks, y, mtry, min_node_size, n_trees, states, rows=None) -> TreeStore:
    """``n_trees`` trees in one kernel call, tree t drawing from a PCG64
    seeded from ``states[t]`` (four uint64 words): its bootstrap sample of
    every row of X, or with ``rows``, of the rows ``rows[t]`` (so tree t
    grows as on ``X[rows[t]]`` with ranks ``ranks[:, rows[t]]``), then one
    candidate order per node that tries to split, drawn as the node is
    reached. ``X``, ``ranks`` and ``y`` must be contiguous float64, uint32
    and float64 arrays of matching shapes, ``states`` a contiguous n_trees x
    4 uint64 array and ``rows`` int64 arrays."""
    n_rows, p = X.shape
    if states.shape != (n_trees, 4) or states.dtype != np.uint64 or not states.flags.c_contiguous:
        raise ValueError("states must be a contiguous n_trees x 4 uint64 array")
    if rows is None:
        width, flat, row_start = n_rows, None, None
    else:
        flat = np.concatenate(rows)
        row_start = np.cumsum([0] + [r.size for r in rows], dtype=np.int64)
        width = max(r.size for r in rows)
    # Every leaf keeps at least min_node_size rows and a leaf that tried to
    # split twice that, so a tree on n rows has fewer than K = n //
    # min_node_size nodes that try, and at most 2K - 1 nodes.
    room = n_trees * (2 * (width // min_node_size) - 1)
    store = TreeStore(
        feature=np.empty(room, dtype=np.int32), threshold=np.empty(room),
        left=np.empty(room, dtype=np.int32), right=np.empty(room, dtype=np.int32),
        value=np.empty(room), node_start=np.empty(n_trees + 1, dtype=np.int64),
        inbag=np.empty((n_trees, width), dtype=np.int64),
        oob=np.empty(n_trees * n_rows, dtype=np.int64),
        oob_start=np.empty(n_trees + 1, dtype=np.int64))
    status = native.kernel().grow_forest(
        X.ctypes.data, ranks.ctypes.data, y.ctypes.data, n_rows, p, states.ctypes.data,
        *(None if a is None else a.ctypes.data for a in (flat, row_start)), width, mtry,
        min_node_size, room,
        *(a.ctypes.data for a in (store.feature, store.threshold, store.left, store.right,
                                  store.value, store.node_start, store.inbag, store.oob,
                                  store.oob_start)),
        n_trees)
    if status == -2:
        raise MemoryError("tree kernel could not allocate its workspace")
    if status < 0:
        raise RuntimeError("tree kernel ran out of node room")
    return store


def _checked_mtry(y: np.ndarray, p: int, params: ForestParams) -> int:
    """The mtry of a forest on the training targets ``y`` and p predictors,
    after checking that a forest can be grown on them."""
    n = y.size
    if p == 0:
        raise EmptyPredictors("no predictor columns")
    if np.ptp(y) == 0.0:
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
    if params.n_trees < 1:
        raise ValueError(f"n_trees must be at least 1, got {params.n_trees}")
    return mtry


def _tree_streams(seed: int, n_trees: int) -> np.ndarray:
    """The PCG64 states of a forest's trees, one row per tree."""
    return seeding._stream_states(seed, _TREE_STREAM, np.arange(n_trees))


def fit(data: DesignMatrix, params: ForestParams | None = None, seed: int = 0) -> ForestModel:
    """Fit a random forest; fully reproducible from (data, params, seed)."""
    params = params or ForestParams()
    mtry = _checked_mtry(data.y, data.X.shape[1], params)
    store = _grow_forest(data.X, data.ranks, data.y, mtry, params.min_node_size,
                         params.n_trees, _tree_streams(seed, params.n_trees))
    return ForestModel(trees=store.trees(), columns=list(data.columns), params=params,
                       seed=seed, n_rows=data.X.shape[0], store=store)


def cross_predict(data: DesignMatrix, params: ForestParams | None, folds: list[np.ndarray],
                  seeds: list[int]) -> np.ndarray:
    """Held-out prediction of every row: the rows of ``folds[f]`` by the
    forest that ``fit`` grows with seed ``seeds[f]`` on the other rows (with
    their ranks in ``data``). ``folds`` must partition the rows.

    Bit for bit that per-fold ``fit`` and ``predict``, with the same checks
    of each fold's training rows in fold order, but no per-fold model is
    built: the k x n_trees trees grow straight from ``data``, fold by fold
    and tree by tree, in kernel batches of ``_BATCH`` that may span folds.
    After each batch one descent adds every tree's predictions of its fold's
    rows into running per-row sums, in tree order from zero as ``predict``
    sums, and the batch is dropped.
    """
    params = params or ForestParams()
    n, p = data.X.shape
    folds = [np.asarray(fold, dtype=np.int64) for fold in folds]
    trains = []
    for fold in folds:
        train = np.ones(n, dtype=bool)
        train[fold] = False
        trains.append(np.flatnonzero(train))
        mtry = _checked_mtry(data.y[trains[-1]], p, params)
    n_trees = params.n_trees
    # tree i of the pair is tree i % n_trees of fold i // n_trees
    states = seeding._stream_states(np.repeat(np.array(seeds, dtype=np.uint64), n_trees),
                                    _TREE_STREAM, np.tile(np.arange(n_trees), len(seeds)))
    sums, counts = np.zeros(n), np.zeros(n, dtype=np.int64)
    total = len(folds) * n_trees
    for first in range(0, total, _BATCH):
        fold_of = [i // n_trees for i in range(first, min(first + _BATCH, total))]
        store = _grow_forest(data.X, data.ranks, data.y, mtry, params.min_node_size,
                             len(fold_of), states[first:first + _BATCH],
                             [trains[f] for f in fold_of])
        # each tree predicts its fold's rows, a subset of its out-of-bag rows
        store.oob = np.concatenate([folds[f] for f in fold_of])
        store.oob_start = np.cumsum([0] + [folds[f].size for f in fold_of])
        _descend_forest(store, data.X, True, totals=(sums, counts))
    return sums / n_trees


def _descend_forest(store: TreeStore, X: np.ndarray, oob: bool, tree=None, cols=None,
                    perms=None, totals=None):
    """Per-row sums, in tree order, of the leaf values that the rows of the
    contiguous float64 array X reach in every tree of ``store``, and per-row
    tree counts. With ``oob`` (X then being the training rows) each tree
    predicts only its out-of-bag rows; otherwise the counts stay zero. The
    sums and counts start from zero, or add into ``totals``, a (sums, counts)
    pair of arrays of n float64 and int64 values.

    Given a tree index ``tree`` (with ``oob``), k predictor indices ``cols``
    and a k x m array ``perms`` of permutations of the tree's m out-of-bag
    positions, returns instead that tree's (1 + k) x m leaf values: row 0 for
    its out-of-bag rows, and row 1 + c for copy c of them, whose row i reads
    predictor ``cols[c]`` from out-of-bag row ``perms[c, i]`` and every other
    predictor from out-of-bag row i.
    """
    n, p = X.shape
    if tree is None:
        first, last, k, row = 0, len(store.inbag), 0, None
        sums, counts = totals or (np.zeros(n), np.zeros(n, dtype=np.int64))
    else:
        if not oob:
            raise ValueError("a single tree's permuted copies need its out-of-bag rows")
        m = int(store.oob_start[tree + 1] - store.oob_start[tree])
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        perms = np.ascontiguousarray(perms, dtype=np.int64)
        first, last, k, counts = tree, tree + 1, cols.size, None
        if perms.shape != (k, m):
            raise ValueError(f"perms must be {k} x {m}, got {perms.shape}")
        sums, row = np.empty((1 + k, m)), np.empty(p)
    native.kernel().descend_forest(
        store.feature.ctypes.data, store.threshold.ctypes.data, store.left.ctypes.data,
        store.right.ctypes.data, store.value.ctypes.data, store.node_start.ctypes.data,
        first, last, X.ctypes.data, n, p, k,
        *(None if a is None else a.ctypes.data
          for a in (store.oob if oob else None, store.oob_start, cols, perms, row, sums,
                    counts)))
    return sums if counts is None else (sums, counts)


def predict(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Per-row mean of per-tree leaf predictions, accumulated in tree order."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.columns):
        raise ColumnMismatch(
            f"expected {len(model.columns)} predictor columns, got "
            f"{X.shape[1] if X.ndim == 2 else 'non-2d input'}"
        )
    total, _ = _descend_forest(model.store, X, oob=False)
    return total / len(model.store.inbag)


def oob_error(model: ForestModel, data: DesignMatrix) -> float:
    """Mean square error of out-of-bag ensemble predictions on the training data.

    Each row is predicted only by trees for which it is out-of-bag; rows that
    are in-bag everywhere are skipped with a log message.
    """
    _check_training_data(model, data)
    n = data.X.shape[0]
    sums, counts = _descend_forest(model.store, data.X, oob=True)
    covered = counts > 0
    if not covered.any():
        raise NoOobCoverage("no row has out-of-bag predictions")
    skipped = int(n - covered.sum())
    if skipped:
        logger.warning("%d row(s) never out-of-bag; skipped in the OOB error", skipped)
    resid = sums[covered] / counts[covered] - data.y[covered]
    return float(resid @ resid / covered.sum())


def _shuffles(seed: int, tree: int, used: np.ndarray, m: int) -> np.ndarray:
    """numpy's ``permutation(m)`` from the substream of (tree, predictor j)
    for each j of ``used``, one row each, drawn by the kernel."""
    states = seeding._stream_states(seed, _PERM_STREAM, tree, used)
    perms = np.empty((used.size, m), dtype=np.int64)
    native.kernel().permutations(states.ctypes.data, used.size, m, perms.ctypes.data)
    return perms


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
    store = model.store
    p = len(model.columns)
    diffs = np.zeros(p)
    trees_used = 0
    nodes, oobs = store.node_start.tolist(), store.oob_start.tolist()
    for t in range(len(store.inbag)):
        o = store.oob[oobs[t]:oobs[t + 1]]
        if o.size == 0:
            continue
        trees_used += 1
        feature = store.feature[nodes[t]:nodes[t + 1]]
        used = np.unique(feature[feature >= 0])
        perms = _shuffles(seed, t, used, o.size)
        d = _descend_forest(store, data.X, True, t, used, perms) - data.y[o]
        # each row's BLAS dot, as ``d @ d`` takes it; einsum and sum round differently
        mse = np.matmul(d[:, None, :], d[:, :, None]).ravel() / o.size
        diffs[used] += mse[1:] - mse[0]
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
