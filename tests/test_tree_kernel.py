"""The compiled tree kernel against the numpy reference grower, bit for bit."""

import numpy as np
import pytest

import forest_oracle
from flowregion import forest
from flowregion.forest import (
    DesignMatrix,
    ForestParams,
    fit,
    oob_error,
    permutation_importance,
    predict,
)

TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "inbag", "oob")


def _design(n, p, columns, target, seed):
    """Normal predictors with special columns, and a target of one kind.

    columns: "normal"; "tied" (integer-valued); "constant" (one constant
    column); "signed_zero" (-0.0 and 0.0 in one column); "duplicated" (the
    second half of the rows repeats the first half, targets included);
    "pairs" (every row repeated with another target, so nodes holding only
    copies of one row cannot split). Columns beyond the first keep normal
    values where the kind needs fewer.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    if columns == "tied":
        X[:, : max(1, p // 2)] = rng.integers(0, 4, size=(n, max(1, p // 2)))
    elif columns == "constant":
        X[:, 0] = 2.5
    elif columns == "signed_zero":
        X[:, 0] = rng.choice([-0.0, 0.0, 1.0, -1.0], size=n)
    elif columns in ("duplicated", "pairs"):
        half = (n + 1) // 2
        X[half:] = X[: n - half]
    signal = X[:, -1] + (np.abs(X[:, 1]) if p > 1 else 0.0)
    if target == "normal":
        y = signal + rng.normal(size=n)
    elif target == "zero_inflated":
        y = np.where(rng.random(n) < 0.6, 0.0, rng.gamma(2.0, size=n) + np.abs(signal))
    elif target == "tiny":
        y = 1e-300 * (signal + rng.normal(size=n))
    elif target == "huge":
        y = 1e300 * (signal + rng.normal(size=n))
    else:  # "overflowing": node totals overflow, so some gains are NaN
        y = 1e308 * rng.uniform(0.5, 1.5, size=n)
    if columns == "duplicated":
        y[(n + 1) // 2:] = y[: n // 2]
    return DesignMatrix([f"x{i}" for i in range(p)], X, y)


def _outputs(data, params, seed):
    model = fit(data, params, seed=seed)
    arrays = [getattr(tree, name) for tree in model.trees for name in TREE_ARRAYS]
    report = permutation_importance(model, data, seed=seed + 1)
    return {
        "trees": [(a.dtype.str, a.tobytes()) for a in arrays],
        "predict": predict(model, data.X).tobytes(),
        "predict_small": predict(model, data.X[:7]).tobytes(),
        "oob": np.float64(oob_error(model, data)).tobytes(),
        "scores": report.scores.tobytes(),
        "ranks": report.ranks.tobytes(),
    }


def _assert_matches_oracle(data, params, seed, monkeypatch):
    kernel = _outputs(data, params, seed)
    with monkeypatch.context() as patch:
        patch.setattr(forest, "_grow", forest_oracle.grow_tree)
        patch.setattr(forest, "_descend", forest_oracle.tree_predict)
        oracle = _outputs(data, params, seed)
    for key in oracle:
        assert kernel[key] == oracle[key], key


# (n, p, min_node_size, mtry, columns, target); mtry None is p // 3
ORACLE_CASES = [
    (10, 1, 1, 1, "normal", "normal"),
    (10, 3, 2, 3, "tied", "normal"),
    (12, 2, 1, 2, "signed_zero", "zero_inflated"),
    (30, 5, 5, None, "constant", "normal"),
    (54, 75, 5, None, "tied", "normal"),
    (54, 75, 1, 75, "signed_zero", "tiny"),
    (80, 6, 2, 1, "pairs", "normal"),
    (100, 10, 2, 1, "duplicated", "huge"),
    (150, 19, 5, 19, "constant", "zero_inflated"),
    (200, 4, 1, 4, "pairs", "zero_inflated"),
    (300, 5, 1, 5, "tied", "normal"),
    (300, 8, 2, None, "normal", "overflowing"),
    (460, 75, 5, 1, "tied", "normal"),
    (460, 28, 2, None, "signed_zero", "huge"),
    (511, 19, 1, None, "tied", "normal"),
    (511, 75, 1, 75, "duplicated", "zero_inflated"),
    (511, 47, 5, None, "normal", "tiny"),
]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("n, p, min_node, mtry, columns, target", ORACLE_CASES)
def test_kernel_matches_numpy_oracle(n, p, min_node, mtry, columns, target, monkeypatch):
    data = _design(n, p, columns, target, seed=n + p)
    params = ForestParams(n_trees=3, mtry=mtry, min_node_size=min_node)
    _assert_matches_oracle(data, params, seed=n * p, monkeypatch=monkeypatch)


def test_restricted_and_wide_ranks_match_oracle(monkeypatch):
    """Ranks of a larger matrix restricted to a subset of rows, then spread
    beyond 2**30, give the trees of the subset's own dense ranks (which the
    oracle computes)."""
    full = _design(400, 12, "tied", "normal", seed=7)
    rows = np.flatnonzero(np.random.default_rng(8).random(400) < 0.8)
    ranks = full.ranks[:, rows]
    params = ForestParams(n_trees=3, min_node_size=1)
    for keys in (ranks, ranks * np.uint32(1 << 22) + np.uint32(65_536)):
        data = DesignMatrix(full.columns, full.X[rows], full.y[rows], keys)
        _assert_matches_oracle(data, params, seed=9, monkeypatch=monkeypatch)


def test_candidate_draws_cover_every_splitting_node():
    """A node that tries to split consumes one row of candidate draws. With
    every row repeated under another target, many leaves try and fail; the
    n // min_node_size rows drawn per tree must still suffice."""
    for min_node in (1, 2, 3):
        data = _design(64, 1, "pairs", "normal", seed=min_node)
        model = fit(data, ForestParams(n_trees=20, min_node_size=min_node), seed=1)
        assert all(tree.feature.size >= 1 for tree in model.trees)


def test_min_node_size_must_be_positive():
    data = _design(20, 2, "normal", "normal", seed=0)
    with pytest.raises(ValueError):
        fit(data, ForestParams(n_trees=1, min_node_size=0))
