import hashlib
import tracemalloc

import numpy as np
import pytest

from flowregion.errors import (
    ColumnMismatch,
    DegenerateTarget,
    EmptyPredictors,
    TooShort,
)
from flowregion.forest import (
    DesignMatrix,
    ForestParams,
    fit,
    oob_error,
    permutation_importance,
    predict,
)


def make_design(n, p, seed, signal=None):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = signal(X, rng) if signal else rng.normal(size=n)
    return DesignMatrix([f"x{i}" for i in range(p)], X, y)


class TestDesignMatrix:
    def test_validation(self, rng):
        with pytest.raises(ValueError):
            DesignMatrix(["a"], rng.normal(size=(3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            DesignMatrix(["a", "a"], rng.normal(size=(3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            DesignMatrix(["a"], np.array([[np.nan]] * 3), np.zeros(3))
        with pytest.raises(ValueError):
            DesignMatrix(["a"], rng.normal(size=(1, 1)), np.zeros(1))


class TestFit:
    def test_noiseless_monotone_function_learned(self):
        data = make_design(200, 1, 0, signal=lambda X, rng: X[:, 0])
        model = fit(data, ForestParams(n_trees=100), seed=1)
        assert oob_error(model, data) < (data.y.std() / 2) ** 2

    def test_constant_target_rejected(self, rng):
        data = DesignMatrix(["a"], rng.normal(size=(30, 1)), np.ones(30))
        with pytest.raises(DegenerateTarget):
            fit(data)

    def test_empty_predictors_rejected(self, rng):
        data = DesignMatrix([], rng.normal(size=(30, 0)), rng.normal(size=30))
        with pytest.raises(EmptyPredictors):
            fit(data)

    def test_too_few_rows_rejected(self, rng):
        data = DesignMatrix(["a"], rng.normal(size=(6, 1)), rng.normal(size=6))
        with pytest.raises(TooShort):
            fit(data, ForestParams(min_node_size=5))

    @pytest.mark.parametrize("n_trees", [0, -1])
    def test_forest_without_trees_rejected(self, n_trees):
        data = make_design(30, 2, 0)
        with pytest.raises(ValueError, match="n_trees"):
            fit(data, ForestParams(n_trees=n_trees))

    def test_determinism_same_seed(self):
        data = make_design(80, 5, 3, signal=lambda X, rng: X[:, 0] + rng.normal(size=80))
        probe = np.random.default_rng(9).normal(size=(20, 5))
        a = predict(fit(data, ForestParams(n_trees=50), seed=7), probe)
        b = predict(fit(data, ForestParams(n_trees=50), seed=7), probe)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        data = make_design(80, 5, 3, signal=lambda X, rng: X[:, 0] + rng.normal(size=80))
        probe = np.random.default_rng(9).normal(size=(20, 5))
        a = predict(fit(data, ForestParams(n_trees=50), seed=7), probe)
        b = predict(fit(data, ForestParams(n_trees=50), seed=8), probe)
        assert not np.array_equal(a, b)

    def test_bootstrap_accounting(self):
        data = make_design(60, 3, 6, signal=lambda X, rng: X[:, 0] + rng.normal(size=60))
        model = fit(data, ForestParams(n_trees=20), seed=2)
        for tree in model.trees:
            assert tree.inbag.size == 60
            drawn = set(tree.inbag.tolist())
            oob = set(tree.oob.tolist())
            assert drawn | oob == set(range(60))
            assert not drawn & oob

    def test_leaf_size_invariant(self):
        data = make_design(120, 4, 8, signal=lambda X, rng: X[:, 0] + rng.normal(size=120))
        params = ForestParams(n_trees=10, min_node_size=7)
        model = fit(data, params, seed=4)
        for tree in model.trees:
            counts = np.zeros(tree.feature.size, dtype=int)
            # push every bootstrap row down to its leaf
            for row_idx in tree.inbag:
                node = 0
                while tree.feature[node] >= 0:
                    if data.X[row_idx, tree.feature[node]] <= tree.threshold[node]:
                        node = tree.left[node]
                    else:
                        node = tree.right[node]
                counts[node] += 1
            leaves = tree.feature < 0
            assert np.all(counts[leaves] >= params.min_node_size)


class TestPredict:
    def test_single_leaf_constant(self, rng):
        X = np.ones((12, 2))  # constant predictors leave no valid split
        y = rng.normal(size=12)
        data = DesignMatrix(["a", "b"], X, y)
        model = fit(data, ForestParams(n_trees=1), seed=0)
        tree = model.trees[0]
        assert np.all(tree.feature < 0)
        np.testing.assert_allclose(
            predict(model, rng.normal(size=(5, 2))),
            np.full(5, tree.value[0]),
        )

    def test_predictions_within_target_range(self):
        data = make_design(150, 4, 10, signal=lambda X, rng: np.sin(X[:, 0]) * 3)
        model = fit(data, ForestParams(n_trees=60), seed=1)
        probe = np.random.default_rng(2).normal(size=(400, 4)) * 5
        pred = predict(model, probe)
        assert pred.min() >= data.y.min() - 1e-12
        assert pred.max() <= data.y.max() + 1e-12

    def test_duplicated_probe_rows_identical(self):
        data = make_design(80, 3, 12, signal=lambda X, rng: X[:, 2])
        model = fit(data, ForestParams(n_trees=30), seed=5)
        row = np.random.default_rng(0).normal(size=(1, 3))
        pred = predict(model, np.vstack([row, row]))
        assert pred[0] == pred[1]

    def test_column_mismatch(self):
        data = make_design(80, 3, 12, signal=lambda X, rng: X[:, 2])
        model = fit(data, ForestParams(n_trees=5), seed=5)
        with pytest.raises(ColumnMismatch):
            predict(model, np.zeros((4, 2)))

    def test_small_and_large_batch_paths_agree(self):
        data = make_design(300, 5, 14, signal=lambda X, rng: X[:, 0] - X[:, 3])
        model = fit(data, ForestParams(n_trees=20), seed=6)
        probe = np.random.default_rng(7).normal(size=(200, 5))
        full = predict(model, probe)
        stitched = np.concatenate(
            [predict(model, probe[i : i + 10]) for i in range(0, 200, 10)]
        )
        np.testing.assert_array_equal(full, stitched)


class TestOobError:
    def test_step_function_low_error(self):
        data = make_design(
            500, 3, 20, signal=lambda X, rng: np.where(X[:, 0] > 0, 2.0, -2.0)
        )
        model = fit(data, ForestParams(n_trees=200), seed=3)
        assert oob_error(model, data) <= 0.05 * data.y.var()

    def test_pure_noise_calibration(self):
        data = make_design(500, 9, 21)
        model = fit(data, ForestParams(n_trees=200), seed=4)
        ratio = oob_error(model, data) / data.y.var()
        assert 0.85 <= ratio <= 1.3

    def test_nonnegative(self):
        data = make_design(60, 2, 22, signal=lambda X, rng: X[:, 0])
        model = fit(data, ForestParams(n_trees=30), seed=5)
        assert oob_error(model, data) >= 0.0


class TestPermutationImportance:
    def test_planted_signal_dominates(self):
        def signal(X, rng):
            return 2.0 * X[:, 0] + rng.normal(size=X.shape[0])

        data = make_design(500, 9, 30, signal=signal)
        model = fit(data, ForestParams(n_trees=200), seed=6)
        report = permutation_importance(model, data, seed=7)
        assert report.ranks[0] == 1
        noise_scores = report.scores[1:]
        assert report.scores[0] > noise_scores.max()
        assert np.all(np.abs(noise_scores) <= 0.05 * data.y.var())

    def test_ranks_are_permutation(self):
        data = make_design(120, 7, 31, signal=lambda X, rng: X[:, 4])
        model = fit(data, ForestParams(n_trees=40), seed=8)
        report = permutation_importance(model, data, seed=9)
        assert sorted(report.ranks.tolist()) == list(range(1, 8))

    def test_determinism(self):
        data = make_design(100, 5, 32, signal=lambda X, rng: X[:, 0])
        model = fit(data, ForestParams(n_trees=30), seed=10)
        a = permutation_importance(model, data, seed=11)
        b = permutation_importance(model, data, seed=11)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_monotone_transform_leaves_structure_invariant(self):
        def signal(X, rng):
            return X[:, 0] + 0.5 * X[:, 1]  # noiseless, unique split gains

        data = make_design(150, 4, 33, signal=signal)
        transformed = data.X.copy()
        transformed[:, 0] = np.exp(transformed[:, 0])  # strictly increasing
        data2 = DesignMatrix(data.columns, transformed, data.y)
        model1 = fit(data, ForestParams(n_trees=40), seed=12)
        model2 = fit(data2, ForestParams(n_trees=40), seed=12)
        # identical training-row partitions: same split predictors, same
        # children, same leaf means (thresholds differ in transformed scale)
        for a, b in zip(model1.trees, model2.trees):
            np.testing.assert_array_equal(a.feature, b.feature)
            np.testing.assert_array_equal(a.left, b.left)
            np.testing.assert_array_equal(a.value[a.feature < 0],
                                          b.value[b.feature < 0])
        ranks1 = permutation_importance(model1, data, seed=13).ranks
        ranks2 = permutation_importance(model2, data2, seed=13).ranks
        np.testing.assert_array_equal(ranks1, ranks2)


    def test_peak_memory_does_not_grow_with_the_forest(self):
        """Importance holds one tree's permuted copies at a time, so its
        allocation peak at 200 trees stays within 1 MB of that at 16."""
        data = make_design(511, 75, 34, signal=lambda X, rng: X[:, 0] + rng.normal(size=511))
        permutation_importance(fit(data, ForestParams(n_trees=2), seed=14), data)
        peaks = []
        for trees in (16, 200):
            model = fit(data, ForestParams(n_trees=trees), seed=14)
            tracemalloc.start()
            try:
                permutation_importance(model, data, seed=15)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1_000_000, peaks


def _golden_design(n, p, seed):
    """Normal columns plus integer-tied and zero-inflated ones, as in the
    regionalization predictors."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X[:, 1 % p] = rng.integers(0, 4, size=n)  # heavy ties
    X[:, 2 % p] = np.where(rng.random(n) < 0.6, 0.0, rng.gamma(2.0, size=n))
    if p > 3:
        X[:, 3] = np.round(X[:, 3], 1)
    y = X[:, 0] + 0.5 * X[:, 2 % p] + rng.normal(size=n)
    return DesignMatrix([f"x{i}" for i in range(p)], X, y)


# (n, p, design seed, trees, min_node_size, fit seed); the pin was taken with
# the third and fifth cases grown on two worker processes
GOLDEN_CASES = (
    (30, 5, 50, 25, 5, 1),
    (54, 75, 51, 12, 5, 2),
    (54, 20, 52, 12, 1, 3),
    (460, 75, 53, 6, 5, 4),
    (511, 19, 54, 6, 1, 5),
)

#: Pinned from the forest before rank-keyed splits and batched importance;
#: any change to tree growth, prediction or importance changes it.
GOLDEN_FOREST_SHA256 = (
    "9d19e3728964c1cb548478a2d7508d060e5d33fcde74a7930ed1c5f2ff93e0db"
)


def test_golden_forest_outputs_bit_identical():
    digest = hashlib.sha256()
    for n, p, dseed, trees, min_node, seed in GOLDEN_CASES:
        data = _golden_design(n, p, dseed)
        params = ForestParams(n_trees=trees, min_node_size=min_node)
        model = fit(data, params, seed=seed)
        for tree in model.trees:
            for arr in (tree.feature, tree.threshold, tree.left, tree.right,
                        tree.value, tree.inbag, tree.oob):
                digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(predict(model, data.X[:37]).tobytes())
        digest.update(predict(model, data.X).tobytes())
        digest.update(repr(oob_error(model, data)).encode())
        report = permutation_importance(model, data, seed=seed + 100)
        digest.update(report.scores.tobytes())
        digest.update(report.ranks.tobytes())
    assert digest.hexdigest() == GOLDEN_FOREST_SHA256

