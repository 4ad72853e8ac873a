import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowregion.dataio import STATIC_ATTRIBUTES, VARIABLE_KINDS, CatchmentRecord, CatchmentTable
from flowregion.engine import FEATURE_NAMES, FeatureVector
from flowregion.errors import BadK, ConstantVector, DegenerateTarget, LengthMismatch
from flowregion import regional
from flowregion.forest import DesignMatrix, ForestParams, dense_ranks, fit, predict
from flowregion.seeding import child_seed
from flowregion.regional import (
    ALL_PREDICTORS,
    GROUP_NAMES,
    CrossValResult,
    average_ranks,
    correlation_matrix,
    cross_validate,
    evaluate_all,
    feature_summary,
    group_columns,
    importance_all,
    kfold_split,
    predictor_matrix,
    rmse,
    spearman,
    target_vector,
    write_correlations,
    write_evaluation,
    write_importance,
    write_pred_vs_obs,
    write_summaries,
)

INTEGER_IDX = [FEATURE_NAMES.index(n)
               for n in ("firstzero_ac", "crossing_points", "flat_spots", "peak", "trough")]


def random_vector(rng):
    values = rng.normal(size=28)
    values[INTEGER_IDX] = rng.integers(1, 50, size=5)
    return FeatureVector(values)


def table_of(records):
    """The catchment table of ``records``."""
    return CatchmentTable([r.catchment_id for r in records],
                          [[r.static[a] for a in STATIC_ATTRIBUTES] for r in records],
                          {v: [r.features(v).values for r in records] for v in VARIABLE_KINDS})


def synthetic_records(n, seed=0, link=None):
    """A table of records with random features; ``link`` may rewrite
    streamflow values."""
    return table_of(random_records(n, seed, link))


def random_records(n, seed=0, link=None):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        static = {a: float(rng.normal()) for a in STATIC_ATTRIBUTES}
        temperature = random_vector(rng)
        precipitation = random_vector(rng)
        streamflow = random_vector(rng)
        if link is not None:
            values = streamflow.values.copy()
            link(values, precipitation, rng)
            streamflow = FeatureVector(values)
        records.append(CatchmentRecord(f"c{i:03d}", static, temperature,
                                       precipitation, streamflow))
    return records


def value_of(record, column):
    """One predictor value read by name: a static attribute or ``<variable>_<feature>``."""
    if column in STATIC_ATTRIBUTES:
        return record.static[column]
    variable, feature = column.split("_", 1)
    return record.features(variable)[feature]


def brute_force_spearman(x, y):
    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        out = [0.0] * len(v)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return np.asarray(out)

    rx, ry = ranks(list(x)), ranks(list(y))
    return float(np.corrcoef(rx, ry)[0, 1])


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman([1, 2, 3], [2, 4, 9]) == pytest.approx(1.0)

    def test_rank_difference_formula(self):
        # sum d^2 = 6 -> 1 - 6*6 / (3 * 8) = -0.5
        assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)

    def test_antisymmetry(self, rng):
        x = rng.normal(size=20)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_constant_vector(self):
        with pytest.raises(ConstantVector):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_matches_brute_force_with_ties(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            y = rng.integers(0, 6, size=n).astype(float)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            assert spearman(x, y) == pytest.approx(brute_force_spearman(x, y),
                                                   abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_increasing_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        a = spearman(x, y)
        b = spearman(np.exp(x), y**3)
        assert a == pytest.approx(b, abs=1e-12)

    def test_average_ranks_with_ties(self):
        np.testing.assert_allclose(average_ranks([10.0, 20.0, 20.0, 30.0]),
                                   [1.0, 2.5, 2.5, 4.0])

    def test_average_ranks_match_loop_oracle(self, rng):
        cases = [np.zeros(7), np.array([0.0, -0.0, 1.0, -0.0, 0.0]),
                 np.array([2.0, 1.0, 2.0])]
        for n in (3, 4, 5, 17, 64, 460, 511):
            cases.append(rng.normal(size=n))
            cases.append(rng.integers(0, 4, size=n).astype(float))  # heavy ties
            cases.append(rng.choice([-0.0, 0.0, 1.0, -1.0], size=n))
            cases.append(np.full(n, 3.25))
        for values in cases:
            got = average_ranks(values)
            assert got.tobytes() == loop_average_ranks(values).tobytes(), values


def loop_average_ranks(values):
    """The per-value loop ``average_ranks`` replaced, kept as the reference."""
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


class TestGroups:
    def test_column_counts(self):
        expected = {"S": 19, "T": 28, "P": 28, "ST": 47, "SP": 47, "TP": 56,
                    "STP": 75}
        for name, count in expected.items():
            assert len(group_columns(name)) == count

    def test_all_predictors_count(self):
        assert len(ALL_PREDICTORS) == 75

    def test_matrix_assembly(self):
        records = synthetic_records(5, seed=1)
        X = predictor_matrix(records, group_columns("STP"))
        assert X.shape == (5, 75)
        assert X[2, 0] == records[2].static["log_elev_mean"]
        t_col = group_columns("STP").index("temperature_x_acf1")
        assert X[3, t_col] == records[3].temperature["x_acf1"]

    @pytest.mark.parametrize("group", GROUP_NAMES)
    def test_matrix_matches_per_value_reference(self, group):
        records = synthetic_records(9, seed=7)
        columns = group_columns(group)
        reference = np.array([[value_of(r, c) for c in columns] for r in records])
        X = predictor_matrix(records, columns)
        assert X.shape == reference.shape
        assert X.tobytes() == reference.tobytes()

    def test_target_vectors_match_per_value_reference(self):
        records = synthetic_records(9, seed=8)
        for feature in FEATURE_NAMES:
            reference = np.array([r.features("streamflow")[feature] for r in records])
            assert target_vector(records, feature).tobytes() == reference.tobytes(), feature


class TestCatchmentTable:
    @pytest.mark.parametrize("tied", [False, True])
    def test_group_columns_of_the_table_ranks_are_the_group_ranked_alone(self, tied):
        table = tied_records(40, seed=3) if tied else synthetic_records(40, seed=3)
        assert table.predictors.flags.c_contiguous
        assert table.predictors.tobytes() == predictor_matrix(table, ALL_PREDICTORS).tobytes()
        for group in GROUP_NAMES:
            columns = group_columns(group)
            index = [ALL_PREDICTORS.index(c) for c in columns]
            alone = dense_ranks(predictor_matrix(table, columns))
            assert table.ranks[index].tobytes() == alone.tobytes(), group

    def test_records_read_back_the_blocks(self):
        records = random_records(6, seed=4)
        table = table_of(records)
        assert len(table) == 6 and table.ids == [r.catchment_id for r in records]
        for record, again in zip(records, table):
            assert again.static == record.static
            for variable in VARIABLE_KINDS:
                assert (again.features(variable).values.tobytes()
                        == record.features(variable).values.tobytes())
        assert table[-1].catchment_id == records[-1].catchment_id

    @pytest.mark.parametrize("n", [0, 1])
    def test_a_table_of_none_or_one_catchment_is_legal(self, n, monkeypatch):
        table = synthetic_records(n, seed=5)
        assert table.predictors.shape == (n, 75) and table.ranks.shape == (75, n)
        assert [r.catchment_id for r in table] == table.ids

        def no_forest(*args, **kwargs):
            raise AssertionError("a forest was grown")

        monkeypatch.setattr(regional, "fit", no_forest)
        with pytest.raises(LengthMismatch, match=f"at least two catchments, got {n}"):
            importance_all(table, ForestParams(n_trees=2))

    def test_ids_must_be_sorted_and_distinct(self):
        blocks = {v: np.zeros((2, 28)) for v in VARIABLE_KINDS}
        for ids in (["b", "a"], ["a", "a"]):
            with pytest.raises(ValueError, match="sorted and distinct"):
                CatchmentTable(ids, np.zeros((2, 19)), blocks)
        with pytest.raises(ValueError, match="2 x 19 block"):
            CatchmentTable(["a", "b"], np.zeros((19, 2)), blocks)


class TestCorrelationMatrix:
    def test_shape(self):
        matrix = correlation_matrix(synthetic_records(12, seed=2))
        assert matrix.rho.shape == (75, 28)

    def test_identical_column_gives_one(self):
        def link(values, precipitation, rng):
            values[0] = precipitation["x_acf1"]  # duplicate a predictor

        matrix = correlation_matrix(synthetic_records(12, seed=3, link=link))
        i = matrix.predictors.index("precipitation_x_acf1")
        assert matrix.rho[i, 0] == pytest.approx(1.0)

    def test_constant_column_is_undefined_marker(self):
        def link(values, precipitation, rng):
            values[5] = 7.0  # constant target column

        matrix = correlation_matrix(synthetic_records(10, seed=4, link=link))
        assert np.isnan(matrix.rho[:, 5]).all()
        assert np.isfinite(matrix.rho[:, 0]).all()

    def test_every_entry_is_spearman_of_its_columns_bit_for_bit(self):
        def link(values, precipitation, rng):
            values[5] = 7.0  # a constant target column

        records = random_records(40, seed=6, link=link)
        for r in records[::3]:
            r.static = {a: float(round(v)) for a, v in r.static.items()}  # ties
        for r in records:
            r.static["sand_frac"] = 0.25  # a constant predictor column
        table = table_of(records)
        matrix = correlation_matrix(table)
        preds = predictor_matrix(table, list(ALL_PREDICTORS))
        for i, predictor in enumerate(ALL_PREDICTORS):
            for j, feature in enumerate(FEATURE_NAMES):
                x, y = preds[:, i], target_vector(table, feature)
                if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
                    assert np.isnan(matrix.rho[i, j]), (predictor, feature)
                else:
                    assert matrix.rho[i, j] == spearman(x, y), (predictor, feature)

    def test_matches_brute_force(self):
        records = synthetic_records(15, seed=5)
        matrix = correlation_matrix(records)
        preds = predictor_matrix(records, list(ALL_PREDICTORS))
        for i in (0, 20, 50, 74):
            for j in (0, 13, 27):
                expected = brute_force_spearman(preds[:, i],
                                                target_vector(records, FEATURE_NAMES[j]))
                assert matrix.rho[i, j] == pytest.approx(expected, abs=1e-10)


class TestKfold:
    def test_camels_sizes(self):
        folds = kfold_split(511, 10, seed=1)
        sizes = sorted(f.size for f in folds)
        assert sizes == [51] * 9 + [52]

    def test_singletons(self):
        folds = kfold_split(10, 10, seed=2)
        assert all(f.size == 1 for f in folds)

    def test_partition_properties(self):
        folds = kfold_split(101, 7, seed=3)
        stacked = np.concatenate(folds)
        assert np.array_equal(np.sort(stacked), np.arange(101))

    def test_determinism(self):
        a = kfold_split(60, 10, seed=4)
        b = kfold_split(60, 10, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_bad_k(self):
        with pytest.raises(BadK):
            kfold_split(5, 6, seed=0)
        with pytest.raises(BadK):
            kfold_split(5, 0, seed=0)


class TestRmse:
    def test_perfect(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_direct_formula(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_symmetry(self, rng):
        a, b = rng.normal(size=9), rng.normal(size=9)
        assert rmse(a, b) == rmse(b, a)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0], [1.0, 2.0])


FAST = ForestParams(n_trees=40)


class TestCrossValidate:
    def test_leakage_probe(self):
        def link(values, precipitation, rng):
            # streamflow target equals a precipitation predictor: group P
            # contains a perfect copy of the target
            values[0] = precipitation["x_acf1"]

        records = synthetic_records(60, seed=6, link=link)
        # mtry = group width so every node sees the leaked column
        params = ForestParams(n_trees=100, mtry=28)
        result = cross_validate(records, "x_acf1", "P", params=params, seed=1)
        target = target_vector(records, "x_acf1")
        assert result.rmse <= 0.3 * target.std(ddof=1)

    def test_pure_noise_target(self):
        records = synthetic_records(60, seed=7)
        result = cross_validate(records, "x_acf1", "S", params=FAST, seed=2)
        sd = target_vector(records, "x_acf1").std(ddof=1)
        assert 0.9 * sd <= result.rmse <= 1.3 * sd

    def test_every_record_predicted_once(self):
        records = synthetic_records(24, seed=8)
        folds = kfold_split(24, 4, seed=3)
        result = cross_validate(records, "entropy", "T", params=FAST, seed=3,
                                folds=folds)
        assert np.isfinite(result.predictions).all()

    def test_pooled_rmse_identity(self):
        records = synthetic_records(30, seed=9)
        folds = kfold_split(30, 4, seed=5)
        result = cross_validate(records, "spike", "SP", params=FAST, seed=5,
                                folds=folds)
        y = target_vector(records, "spike")
        pooled_sq = result.rmse**2
        weighted = sum(
            f.size * np.mean((result.predictions[f] - y[f]) ** 2) for f in folds
        ) / len(records)
        assert pooled_sq == pytest.approx(weighted, abs=1e-10)

    @pytest.mark.parametrize("folds", [
        [np.arange(0, 12), np.arange(13, 24)],  # row 12 in no fold
        [np.arange(0, 13), np.arange(12, 24)],  # row 12 in two folds
        [np.arange(0, 12), np.arange(12, 25)],  # a row past the last record
        [],
    ])
    def test_folds_must_partition_the_records(self, folds):
        records = synthetic_records(24, seed=8)
        with pytest.raises(BadK, match="partition"):
            cross_validate(records, "entropy", "T", params=FAST, seed=3, folds=folds)

    def test_one_fold_is_bad_k(self):
        # one fold holds every record, so its forest would have no rows to train on
        records = synthetic_records(30, seed=8)
        with pytest.raises(BadK, match="at least 2 and"):
            cross_validate(records, "entropy", "S", k=1, params=FAST, seed=3)
        with pytest.raises(BadK, match="at least 2 and"):
            evaluate_all(records, params=FAST, seed=3, k=1, groups=("S",))
        for folds in ([np.arange(30)], [np.arange(30), np.arange(0)]):
            with pytest.raises(BadK, match="none to train on"):
                cross_validate(records, "entropy", "S", params=FAST, seed=3, folds=folds)

    def test_given_folds_override_k(self):
        # 15 records are too few for the default k = 10, not for these 3 folds
        records = synthetic_records(15, seed=8)
        folds = kfold_split(15, 3, seed=3)
        given = cross_validate(records, "entropy", "T", params=FAST, seed=3, folds=folds)
        with pytest.raises(BadK):
            cross_validate(records, "entropy", "T", params=FAST, seed=3)
        assert np.isfinite(given.predictions).all()

    def test_peak_memory_does_not_grow_with_the_forest(self):
        """Cross-validation holds one batch of trees at a time, so its
        allocation peak at 200 trees per fold stays within 1 MB of that at 16."""
        records = synthetic_records(511, seed=40)
        cross_validate(records, "x_acf1", "STP", params=ForestParams(n_trees=2), seed=1)
        peaks = []
        for trees in (16, 200):
            tracemalloc.start()
            try:
                cross_validate(records, "x_acf1", "STP", params=ForestParams(n_trees=trees),
                               seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1_000_000, peaks


def per_fold_reference(table, target, group, params, seed, folds):
    """Held-out predictions of one forest per fold, fitted on the other
    folds' rows with the ranks of the group's own columns at those rows (not
    the table's ranks, which ``cross_validate`` slices), then predicted."""
    columns = group_columns(group)
    X = predictor_matrix(table, columns)
    y = target_vector(table, target)
    ranks = DesignMatrix(columns, X, y).ranks
    predictions = np.empty(len(table))
    for f, fold in enumerate(folds):
        train = np.setdiff1d(np.arange(len(table)), fold)
        model = fit(DesignMatrix(columns, X[train], y[train], ranks[:, train]), params,
                    seed=child_seed(seed, "cv", target, group, f))
        predictions[fold] = predict(model, X[fold])
    return predictions


def tied_records(n, seed):
    """A table whose static attributes are small integers: heavy ties."""
    records = random_records(n, seed=seed)
    for r in records:
        r.static = {a: float(round(v)) for a, v in r.static.items()}
    return table_of(records)


# (group, records, k, trees, min_node_size, tied static attributes)
PER_FOLD_CASES = (
    [(g, 31, 4, 5, 5, False) for g in GROUP_NAMES]  # 31 rows: folds of 8, 8, 8, 7
    + [("S", 24, 3, 7, 1, True),  # 21 trees: the first batch spans all three folds
       ("ST", 40, 3, 7, 2, True),
       ("TP", 30, 2, 40, 5, False)]  # each fold's trees span batches
)


@pytest.mark.parametrize("group, n, k, trees, min_node, tied", PER_FOLD_CASES)
def test_cross_validate_equals_per_fold_forests(group, n, k, trees, min_node, tied):
    records = tied_records(n, seed=n) if tied else synthetic_records(n, seed=n)
    params = ForestParams(n_trees=trees, min_node_size=min_node)
    folds = kfold_split(n, k, seed=n + 1)
    for target in ("entropy", "x_acf1"):
        result = cross_validate(records, target, group, params=params, seed=n + 2,
                                folds=folds)
        expected = per_fold_reference(records, target, group, params, n + 2, folds)
        assert result.predictions.tobytes() == expected.tobytes(), target
        assert result.rmse == rmse(expected, target_vector(records, target))


@pytest.fixture(scope="module")
def full_report():
    records = synthetic_records(24, seed=10)
    return evaluate_all(records, ForestParams(n_trees=15), seed=11, k=3)


class TestEvaluateAll:
    @pytest.fixture
    def report(self, full_report):
        return full_report

    def test_matrix_shape_and_count(self, report):
        assert report.rmse.shape == (28, 7)
        assert report.rmse.size == 196

    def test_ranks_are_permutations(self, report):
        for row in report.ranks:
            assert sorted(row.tolist()) == list(range(1, 8))

    def test_static_relative_scores_zero(self, report):
        s = report.groups.index("S")
        np.testing.assert_allclose(report.relative_scores[:, s], 0.0, atol=1e-12)

    def test_rank_rmse_consistency(self, report):
        for ti in range(28):
            order = np.argsort(report.ranks[ti])
            sorted_rmse = report.rmse[ti][order]
            assert np.all(np.diff(sorted_rmse) >= -1e-15)

    def test_relative_score_arithmetic(self, report):
        s = report.groups.index("S")
        for gi in range(7):
            expected = 100.0 * (report.rmse[:, s] - report.rmse[:, gi]) / report.rmse[:, s]
            np.testing.assert_allclose(report.relative_scores[:, gi], expected,
                                       atol=1e-12)

    def test_predictions_from_full_group(self, report):
        assert report.prediction_group == "STP"
        assert set(report.predicted) == set(FEATURE_NAMES)
        assert all(v.size == 24 for v in report.predicted.values())

    def test_repeated_group_rejected(self):
        records = synthetic_records(24, seed=12)
        with pytest.raises(ValueError, match="repeated"):
            evaluate_all(records, ForestParams(n_trees=2), seed=13, k=3, groups=("S", "S"))

    def test_restricted_groups(self):
        records = synthetic_records(24, seed=12)
        restricted = evaluate_all(records, ForestParams(n_trees=10), seed=13,
                                  k=3, groups=("T", "P"))
        assert restricted.rmse.shape == (28, 2)
        assert restricted.relative_scores is None
        assert restricted.prediction_group is None

    def test_worker_determinism(self):
        records = synthetic_records(24, seed=14)
        a = evaluate_all(records, ForestParams(n_trees=10), seed=15, k=3,
                         groups=("S", "STP"), workers=1)
        b = evaluate_all(records, ForestParams(n_trees=10), seed=15, k=3,
                         groups=("S", "STP"), workers=2)
        np.testing.assert_array_equal(a.rmse, b.rmse)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_pair_is_named(self, workers):
        def link(values, precipitation, rng):
            values[FEATURE_NAMES.index("entropy")] = 0.25

        records = synthetic_records(24, seed=24, link=link)
        with pytest.raises(DegenerateTarget, match=r"\(entropy, S\): target is constant"):
            evaluate_all(records, ForestParams(n_trees=5), seed=25, k=3,
                         groups=("S", "P"), workers=workers)

    def test_fold_reuse_across_pairs(self, report):
        # the partition object recorded in the report is used for every pair;
        # rerunning one pair with those folds reproduces its RMSE exactly
        records = synthetic_records(24, seed=10)
        redo = cross_validate(records, "entropy", "TP",
                              params=ForestParams(n_trees=15), seed=11,
                              folds=report.folds)
        ti = report.targets.index("entropy")
        gi = report.groups.index("TP")
        assert redo.rmse == report.rmse[ti, gi]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_design_matches_standalone_pairs(self, workers):
        # evaluate_all runs every pair in its pool on the table it was given;
        # each standalone cross_validate call reads the same table in-process
        records = synthetic_records(24, seed=26)
        params = ForestParams(n_trees=8)
        report = evaluate_all(records, params, seed=27, k=3, workers=workers)
        for gi, group in enumerate(report.groups):
            for ti, target in enumerate(report.targets):
                alone = cross_validate(records, target, group, params=params,
                                       seed=27, folds=report.folds)
                assert alone.rmse == report.rmse[ti, gi], (target, group)
                if group == report.prediction_group:
                    assert alone.predictions.tobytes() == report.predicted[target].tobytes()

    def test_exact_static_fit_gives_undefined_relative_scores(self, monkeypatch,
                                                              tmp_path):
        def exact_static_fit(records, target, group, params=None, seed=0,
                             folds=None):
            y = target_vector(records, target)
            pred = y if (group, target) == ("S", "entropy") else y + 1.0
            return CrossValResult(pred, rmse(pred, y))

        monkeypatch.setattr(regional, "cross_validate", exact_static_fit)
        records = synthetic_records(24, seed=18)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate_all(records, seed=19, k=3, groups=("S", "P"))
        ti = report.targets.index("entropy")
        assert report.rmse[ti, 0] == 0.0
        assert np.isnan(report.relative_scores[ti]).all()
        others = np.delete(report.relative_scores, ti, axis=0)
        np.testing.assert_array_equal(others[:, 0], 0.0)
        assert np.isfinite(others).all()
        path = tmp_path / "evaluation.json"
        write_evaluation(path, report)
        assert "NaN" not in path.read_text()
        payload = json.loads(path.read_text())
        assert payload["relative_scores"][ti] == [None, None]
        other = 1 if ti == 0 else 0
        assert payload["relative_scores"][other] == report.relative_scores[other].tolist()


class TestImportanceAll:
    def test_structure(self):
        records = synthetic_records(24, seed=16)
        reports = importance_all(records, ForestParams(n_trees=10), seed=17)
        assert set(reports) == set(FEATURE_NAMES)
        for report in reports.values():
            assert len(report.predictors) == 75
            assert sorted(report.ranks.tolist()) == list(range(1, 76))

    def test_injected_predictor_ranks_first(self):
        def link(values, precipitation, rng):
            values[FEATURE_NAMES.index("entropy")] = precipitation["entropy"]

        records = synthetic_records(40, seed=18, link=link)
        reports = importance_all(records, ForestParams(n_trees=60), seed=19)
        report = reports["entropy"]
        injected = report.predictors.index("precipitation_entropy")
        assert report.ranks[injected] == 1

    def test_determinism(self):
        records = synthetic_records(24, seed=20)
        a = importance_all(records, ForestParams(n_trees=10), seed=21)
        b = importance_all(records, ForestParams(n_trees=10), seed=21)
        for t in FEATURE_NAMES:
            np.testing.assert_array_equal(a[t].scores, b[t].scores)

    def test_worker_count_is_bitwise_irrelevant(self):
        records = synthetic_records(24, seed=26)
        serial = importance_all(records, ForestParams(n_trees=10), seed=27, workers=1)
        parallel = importance_all(records, ForestParams(n_trees=10), seed=27, workers=2)
        assert list(serial) == list(parallel)
        for t in FEATURE_NAMES:
            np.testing.assert_array_equal(serial[t].scores, parallel[t].scores)
            np.testing.assert_array_equal(serial[t].ranks, parallel[t].ranks)


class TestFeatureSummary:
    def test_constant_feature(self):
        def link(values, precipitation, rng):
            values[3] = 5.0

        rows = feature_summary(synthetic_records(10, seed=22, link=link))
        target_rows = [r for r in rows
                       if r.variable == "streamflow" and r.feature == FEATURE_NAMES[3]]
        assert target_rows[0].minimum == target_rows[0].maximum == 5.0

    def test_quartile_ordering(self):
        rows = feature_summary(synthetic_records(15, seed=23))
        assert len(rows) == 84
        for r in rows:
            assert r.minimum <= r.q1 <= r.median <= r.q3 <= r.maximum

    def test_matches_sort_oracle(self):
        records = synthetic_records(17, seed=24)
        rows = feature_summary(records)
        col = np.sort(target_vector(records, "x_acf1"))

        def interpolate(q):
            pos = q * (col.size - 1)
            lo = int(np.floor(pos))
            hi = min(lo + 1, col.size - 1)
            return col[lo] + (pos - lo) * (col[hi] - col[lo])

        row = next(r for r in rows
                   if r.variable == "streamflow" and r.feature == "x_acf1")
        assert row.q1 == pytest.approx(interpolate(0.25), abs=1e-12)
        assert row.median == pytest.approx(interpolate(0.5), abs=1e-12)
        assert row.q3 == pytest.approx(interpolate(0.75), abs=1e-12)
        assert row.minimum == col[0] and row.maximum == col[-1]

    def test_every_row_matches_per_value_reference(self):
        records = synthetic_records(13, seed=25)
        rows = feature_summary(records)
        assert [(r.variable, r.feature) for r in rows] == \
            [(v, f) for v in VARIABLE_KINDS for f in FEATURE_NAMES]
        for row in rows:
            col = np.array([r.features(row.variable)[row.feature] for r in records])
            q1, median, q3 = np.quantile(col, [0.25, 0.5, 0.75])
            expected = np.array([col.min(), q1, median, q3, col.max(), col.mean()])
            got = np.array([row.minimum, row.q1, row.median, row.q3, row.maximum, row.mean])
            assert got.tobytes() == expected.tobytes(), (row.variable, row.feature)


class TestWriters:
    def test_correlations_round_trip(self, tmp_path):
        matrix = correlation_matrix(synthetic_records(8, seed=25))
        path = tmp_path / "correlations.csv"
        write_correlations(path, matrix)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 75 * 28
        # re-serializing the parsed file is the identity
        body = [line.split(",") for line in lines[1:]]
        rebuilt = ["predictor,target,rho"] + [
            f"{p},{t},{v if v == 'undefined' else repr(float(v))}"
            for p, t, v in body
        ]
        assert "\n".join(rebuilt) + "\n" == path.read_text()

    def test_evaluation_json_round_trip(self, tmp_path):
        records = synthetic_records(24, seed=26)
        report = evaluate_all(records, ForestParams(n_trees=8), seed=27, k=3,
                              groups=("S", "P", "STP"))
        path = tmp_path / "evaluation.json"
        write_evaluation(path, report)
        payload = json.loads(path.read_text())
        assert np.asarray(payload["rmse"]).shape == (28, 3)
        np.testing.assert_array_equal(np.asarray(payload["rmse"]), report.rmse)
        write_evaluation(tmp_path / "again.json", report)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_pred_vs_obs_rows(self, tmp_path):
        records = synthetic_records(24, seed=28)
        report = evaluate_all(records, ForestParams(n_trees=8), seed=29, k=3,
                              groups=("S", "STP"))
        path = tmp_path / "pred_vs_obs.csv"
        write_pred_vs_obs(path, report)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 28 * 24

    def test_importance_and_summaries_files(self, tmp_path):
        records = synthetic_records(24, seed=30)
        reports = importance_all(records, ForestParams(n_trees=8), seed=31)
        write_importance(tmp_path / "importance.csv", reports)
        lines = (tmp_path / "importance.csv").read_text().splitlines()
        assert len(lines) == 1 + 28 * 75
        write_summaries(tmp_path / "summaries.csv", feature_summary(records))
        assert len((tmp_path / "summaries.csv").read_text().splitlines()) == 1 + 84
