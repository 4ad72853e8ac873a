"""The compiled tree kernel against the numpy reference grower, bit for bit."""

import numpy as np
import pytest

import forest_oracle
from flowregion import forest, native, seeding
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
        patch.setattr(forest, "_grow_forest", forest_oracle.grow_forest)
        patch.setattr(forest, "_shuffles", forest_oracle.shuffles)
        patch.setattr(forest, "_descend_forest", forest_oracle.descend_forest)
        oracle = _outputs(data, params, seed)
    for key in oracle:
        assert kernel[key] == oracle[key], key


# (n, p, min_node_size, mtry, columns, target); mtry None is p // 3
ORACLE_CASES = [
    (3, 2, 1, None, "pairs", "normal"),  # a root that is a leaf: no permuted copies
    (4, 2, 1, 2, "duplicated", "normal"),  # a tree with no out-of-bag rows
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
    # NaN gains inside runs of tied keys, which are not split positions
    (60, 4, 1, 4, "tied", "overflowing"),
    (90, 6, 2, None, "duplicated", "overflowing"),
    (120, 5, 1, 5, "pairs", "overflowing"),
    (460, 75, 5, None, "tied", "overflowing"),
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
    """A node that tries to split draws its candidates. With every row
    repeated under another target, many leaves try and fail; each tree must
    still fit in the 2 * (n // min_node_size) - 1 nodes of room it is given."""
    for min_node in (1, 2, 3):
        data = _design(64, 1, "pairs", "normal", seed=min_node)
        model = fit(data, ForestParams(n_trees=20, min_node_size=min_node), seed=1)
        assert all(tree.feature.size >= 1 for tree in model.trees)


def _bootstrap(data, states, rows=None):
    """The inbag rows that ``forest._grow_forest`` writes, one per state."""
    store = forest._grow_forest(data.X, data.ranks, data.y, 1, 1, len(states), states, rows)
    sizes = [data.y.size] * len(states) if rows is None else [r.size for r in rows]
    return [row[:n] for row, n in zip(store.inbag, sizes)]


def _lemire_rejections(state, n) -> int:
    """How many 32-bit halves numpy's integers(0, n, size=n) from ``state``
    rejects: Lemire's method rejects a half h when (h * n) mod 2**32 falls
    below 2**32 mod n."""
    raw = seeding._generator(state).bit_generator.random_raw(n)
    halves = np.stack([raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)], axis=1).ravel()
    low = (halves * np.uint64(n) & np.uint64(0xFFFFFFFF)).tolist()
    kept = 0
    for i, v in enumerate(low):
        kept += v >= (1 << 32) % n
        if kept == n:
            return i + 1 - n
    raise AssertionError("more than n halves rejected")


@pytest.mark.parametrize("n", [2, 10, 460, 511, 641])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_bootstrap_draws_match_numpy(n, seed):
    """A tree's sample is numpy's integers(0, n, size=n) from its state, on
    every row or, mapped through them, on the rows it is restricted to."""
    data = _design(n + 5, 3, "normal", "normal", seed=n)
    states = forest._tree_streams(seed, 4)
    pick = np.random.default_rng(seed)
    rows = [np.sort(pick.permutation(n + 5)[:n]) for _ in range(4)]
    whole = _bootstrap(DesignMatrix(data.columns, data.X[:n], data.y[:n]), states)
    restricted = _bootstrap(data, states, rows)
    for t, rng in enumerate(map(seeding._generator, states)):
        want = rng.integers(0, n, size=n)
        np.testing.assert_array_equal(whole[t], want)
        np.testing.assert_array_equal(restricted[t], rows[t][want])


def test_bootstrap_follows_lemire_rejections():
    """641 divides 2**32 + 1, so 2**32 mod 641 is 640, the largest rejection
    threshold a sample size can have. The sample of tree 1523 under seed 7
    on 641 rows rejects some draws; the kernel's must be numpy's."""
    (state,) = seeding._states(7, [("tree", 1523)])
    assert _lemire_rejections(state, 641) > 0
    data = _design(641, 2, "normal", "normal", seed=1)
    (sample,) = _bootstrap(data, state[None])
    np.testing.assert_array_equal(sample, seeding._generator(state).integers(0, 641, size=641))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 75, 511, 512, 513])
def test_permutations_match_numpy(m):
    """One permutation(m) per state, as numpy's Generator shuffles. At
    m = 513 the first swap draws under the mask 1023, rejecting about half
    of its draws."""
    states = seeding._states(3, [("perm", t, j) for t in range(3) for j in range(4)])
    out = np.empty((len(states), m), dtype=np.int64)
    native.kernel().permutations(states.ctypes.data, len(states), m, out.ctypes.data)
    for row, rng in zip(out, map(seeding._generator, states)):
        np.testing.assert_array_equal(row, rng.permutation(m))


def test_min_node_size_must_be_positive():
    data = _design(20, 2, "normal", "normal", seed=0)
    with pytest.raises(ValueError):
        fit(data, ForestParams(n_trees=1, min_node_size=0))


# (n, p, min_node_size, mtry, columns, target, k, trees); k * trees > 16, so
# kernel batches span folds
FOLD_CASES = [
    (24, 3, 2, 3, "signed_zero", "zero_inflated", 3, 7),
    (31, 5, 1, None, "tied", "normal", 4, 7),
    (60, 8, 5, None, "pairs", "normal", 5, 4),
    (45, 19, 1, None, "duplicated", "normal", 2, 20),
]


@pytest.mark.parametrize("n, p, min_node, mtry, columns, target, k, trees", FOLD_CASES)
def test_fold_restricted_growth_matches_oracle(n, p, min_node, mtry, columns, target, k,
                                               trees, monkeypatch):
    """cross_predict grows each tree on the rows outside its fold (folds of
    unequal size, so unequal samples), from the full matrix's ranks; the
    numpy grower given only those rows agrees."""
    data = _design(n, p, columns, target, seed=n + p)
    folds = np.array_split(np.random.default_rng(n).permutation(n), k)
    seeds = [n * p + f for f in range(k)]
    params = ForestParams(n_trees=trees, mtry=mtry, min_node_size=min_node)
    kernel = forest.cross_predict(data, params, folds, seeds)
    with monkeypatch.context() as patch:
        patch.setattr(forest, "_grow_forest", forest_oracle.grow_forest)
        patch.setattr(forest, "_descend_forest", forest_oracle.descend_forest)
        oracle = forest.cross_predict(data, params, folds, seeds)
    assert kernel.tobytes() == oracle.tobytes()
