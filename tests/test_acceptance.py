"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line when it holds. Run with ``pytest tests/test_acceptance.py -v -s``.

Suites: feature-extraction oracles, numerical equivalence, forest behaviour,
and the synthetic end-to-end pipeline. The optional full-data check runs only
when FLOWREGION_CAMELS_SERIES / FLOWREGION_CAMELS_ATTRIBUTES point at a real
dataset export.
"""

import datetime
import json
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from flowregion.dataio import IngestConfig, load_dataset
from flowregion.dependence import acf, pacf_from_acf
from flowregion.distributional import tiled_stats
from flowregion.engine import extract_features
from flowregion.forest import (
    DesignMatrix,
    ForestParams,
    fit,
    oob_error,
    permutation_importance,
    predict,
)
from flowregion.regional import (
    ALL_PREDICTORS,
    cross_validate,
    evaluate_all,
    kfold_split,
    predictor_matrix,
    spearman,
    target_vector,
    write_evaluation,
)
from flowregion.seeding import child_seed
from flowregion.series import TimeSeries, standardize
from flowregion.synthetic import (
    PLANTED_PREDICTORS,
    PLANTED_TARGET,
    SyntheticSpec,
    generate,
)

from conftest import ar1, sine, white_noise
from test_dependence import yule_walker_pacf
from test_regional import brute_force_spearman

WORKERS = 2


def ok(label):
    print(f"ACCEPTANCE PASS: {label}")


# ---------------------------------------------------------------------------
# Suite 1: feature-extraction oracle suite
# ---------------------------------------------------------------------------

class TestFeatureOracles:
    def test_ar1_dependence_features(self):
        fv = extract_features(TimeSeries(ar1(5000, 0.8, seed=101)))
        assert 0.77 <= fv["x_acf1"] <= 0.83
        assert 0.59 <= fv["x_pacf5"] <= 0.69
        assert fv["firstzero_ac"] > 5
        ok("AR(1) phi=0.8: x_acf1, x_pacf5, firstzero_ac")

    def test_white_noise_features(self):
        fv = extract_features(TimeSeries(white_noise(5000, seed=102)))
        assert fv["entropy"] >= 0.95
        assert fv["x_acf10"] <= 0.01
        assert abs(fv["e_acf1"]) <= 0.05
        assert 1.36 <= fv["std1st_der"] <= 1.46
        ok("white noise: entropy, x_acf10, e_acf1, std1st_der")

    def test_seasonal_series_features(self):
        fv = extract_features(TimeSeries(sine(3650, noise_sd=0.1, seed=103)))
        assert fv["seasonal_strength"] >= 0.9
        assert fv["seas_acf1"] >= 0.8
        assert fv["entropy"] <= 0.5
        assert 91 <= fv["peak"] <= 93
        assert 273 <= fv["trough"] <= 275
        ok("sine + noise: seasonal_strength, seas_acf1, entropy, peak, trough")

    def test_trend_series_features(self):
        rng = np.random.default_rng(104)
        ramp = 3.0 * np.arange(3650.0) / 3650.0 + 0.1 * rng.normal(size=3650)
        fv = extract_features(TimeSeries(ramp))
        assert fv["trend"] >= 0.95
        assert fv["linearity"] > 0
        ok("ramp + noise: trend strength, linearity sign")

    def test_two_level_series_tiles(self):
        x = np.concatenate([-np.ones(365), np.ones(365)])
        stats = tiled_stats(standardize(x), 365)
        assert 1.9 <= stats["stability"] <= 2.1
        assert stats["lumpiness"] <= 1e-8
        ok("two-level series: stability, lumpiness")


# ---------------------------------------------------------------------------
# Suite 2: numerical equivalence suite
# ---------------------------------------------------------------------------

class TestNumericalEquivalence:
    def test_pacf_matches_yule_walker(self):
        rng = np.random.default_rng(201)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(30, 201))
            lags = int(rng.integers(5, 21))
            r = acf(rng.normal(size=n), lags)
            delta = np.abs(pacf_from_acf(r) - yule_walker_pacf(r)).max()
            worst = max(worst, delta)
        assert worst <= 1e-8
        ok(f"Durbin-Levinson vs Yule-Walker solve (max delta {worst:.2e})")

    def test_stl_reconstruction(self):
        from flowregion.decomposition import stl_decompose

        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(800, 1600))
            x = standardize(
                rng.uniform(0.3, 2.0) * sine(n, seed=int(rng.integers(1 << 31)))
                + rng.normal(size=n)
            )
            dec = stl_decompose(x, 365)
            delta = np.abs(dec.trend + dec.seasonal + dec.remainder - x).max()
            worst = max(worst, delta)
        assert worst <= 1e-8
        ok(f"STL reconstruction identity (max delta {worst:.2e})")

    def test_spearman_matches_brute_force(self):
        rng = np.random.default_rng(203)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(3, 60))
            x = rng.integers(0, 8, size=n).astype(float)  # ties included
            y = rng.integers(0, 8, size=n).astype(float)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            worst = max(worst, abs(spearman(x, y) - brute_force_spearman(x, y)))
        assert worst <= 1e-10
        ok(f"Spearman vs rank-then-Pearson brute force (max delta {worst:.2e})")

    def test_pooled_rmse_identity(self):
        rng = np.random.default_rng(204)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(20, 200))
            k = int(rng.integers(2, 11))
            pred = rng.normal(size=n)
            obs = rng.normal(size=n)
            folds = kfold_split(n, k, seed=int(rng.integers(1 << 31)))
            pooled_sq = np.mean((pred - obs) ** 2)
            weighted = sum(
                f.size * np.mean((pred[f] - obs[f]) ** 2) for f in folds
            ) / n
            worst = max(worst, abs(pooled_sq - weighted))
        assert worst <= 1e-10
        ok(f"pooled RMSE vs size-weighted fold MSE (max delta {worst:.2e})")


# ---------------------------------------------------------------------------
# Suite 3: forest suite
# ---------------------------------------------------------------------------

def _forest_planted_rep(rep):
    rng = np.random.default_rng(rep)
    X = rng.normal(size=(500, 10))
    y = 2.0 * X[:, 0] + X[:, 1] + rng.normal(size=500)
    data = DesignMatrix([f"x{i}" for i in range(10)], X, y)
    model = fit(data, ForestParams(n_trees=500), seed=rep)
    scores = permutation_importance(model, data, seed=rep + 1000).scores
    return bool(scores[0] > scores[1] and scores[1] > scores[2:].max())


class TestForest:
    def test_planted_signal_importance_100_reps(self):
        with ProcessPoolExecutor(max_workers=WORKERS) as pool:
            outcomes = list(pool.map(_forest_planted_rep, range(100), chunksize=5))
        passes = sum(outcomes)
        assert passes >= 95
        ok(f"planted-signal importance ordering in {passes}/100 repetitions")

    def test_oob_calibration(self):
        rng = np.random.default_rng(301)
        X = rng.normal(size=(500, 9))
        noise_data = DesignMatrix([f"x{i}" for i in range(9)], X,
                                  rng.normal(size=500))
        noise_ratio = (
            oob_error(fit(noise_data, ForestParams(n_trees=500), seed=1), noise_data)
            / noise_data.y.var()
        )
        assert 0.85 <= noise_ratio <= 1.3

        step_y = np.where(X[:, 0] > 0, 2.0, -2.0)
        step_data = DesignMatrix(noise_data.columns, X, step_y)
        step_ratio = (
            oob_error(fit(step_data, ForestParams(n_trees=500), seed=2), step_data)
            / step_y.var()
        )
        assert step_ratio <= 0.05
        ok(f"OOB calibration: noise ratio {noise_ratio:.3f}, step ratio {step_ratio:.4f}")

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(302)
        X = rng.normal(size=(200, 6))
        y = X[:, 0] - X[:, 4] + 0.3 * rng.normal(size=200)
        data = DesignMatrix([f"x{i}" for i in range(6)], X, y)
        probe = rng.normal(size=(50, 6))
        runs = []
        for _ in range(3):
            model = fit(data, ForestParams(n_trees=120), seed=5)
            runs.append((predict(model, probe),
                         permutation_importance(model, data, seed=6).scores))
        for pred, scores in runs[1:]:
            np.testing.assert_array_equal(pred, runs[0][0])
            np.testing.assert_array_equal(scores, runs[0][1])
        ok("bitwise determinism across three reruns")


# ---------------------------------------------------------------------------
# Suite 4: pipeline suite on the bundled synthetic dataset
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synthetic_records(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    spec = SyntheticSpec()  # 60 catchments, 10 years
    generate(root / "series", root / "attributes.csv", seed=7, spec=spec)
    config = IngestConfig(
        start=datetime.date(spec.start_year, 1, 1),
        end=datetime.date(spec.start_year + spec.n_years - 1, 12, 31),
        workers=WORKERS,
    )
    records, exclusions = load_dataset(root / "series", root / "attributes.csv",
                                       config)
    assert len(records) == 60 and not exclusions
    return records


def _pipeline_planted_rep(args):
    records, rep = args
    params = ForestParams(n_trees=200)
    folds = kfold_split(len(records), 10, child_seed(rep, "folds"))
    scores = {
        group: cross_validate(records, PLANTED_TARGET, group, params=params,
                              seed=rep, folds=folds).rmse
        for group in ("S", "P", "SP", "TP", "STP")
    }
    columns = list(ALL_PREDICTORS)
    data = DesignMatrix(columns, predictor_matrix(records, columns),
                        target_vector(records, PLANTED_TARGET))
    model = fit(data, params, seed=child_seed(rep, "imp"))
    ranks = permutation_importance(model, data, seed=child_seed(rep, "perm")).ranks
    planted_ranks = [int(ranks[columns.index(p)]) for p in PLANTED_PREDICTORS]
    beats_static = all(scores[g] < scores["S"] for g in ("P", "SP", "TP", "STP"))
    return bool(beats_static and max(planted_ranks) <= 5)


class TestPipeline:
    def test_evaluation_structure(self, synthetic_records, tmp_path):
        report = evaluate_all(synthetic_records, ForestParams(n_trees=200),
                              seed=42, k=10, workers=WORKERS)
        path = tmp_path / "evaluation.json"
        write_evaluation(path, report)
        payload = json.loads(path.read_text())
        rmse = np.asarray(payload["rmse"])
        assert rmse.shape == (28, 7) and rmse.size == 196
        for row in payload["ranks"]:
            assert sorted(row) == list(range(1, 8))
        static = payload["groups"].index("S")
        for row in payload["relative_scores"]:
            assert row[static] == 0.0
        ok("196 RMSE entries, rank permutations, zero static relative scores")

    def test_planted_relationship_100_reps(self, synthetic_records):
        jobs = [(synthetic_records, rep) for rep in range(100)]
        with ProcessPoolExecutor(max_workers=WORKERS) as pool:
            outcomes = list(pool.map(_pipeline_planted_rep, jobs, chunksize=4))
        passes = sum(outcomes)
        assert passes >= 95
        ok(f"planted precipitation link recovered in {passes}/100 repetitions")

    def test_kfold_camels_shape(self):
        folds = kfold_split(511, 10, seed=42)
        sizes = sorted(f.size for f in folds)
        assert sizes == [51] * 9 + [52]
        stacked = np.concatenate(folds)
        assert np.array_equal(np.sort(stacked), np.arange(511))
        ok("kfold_split(511, 10): nine folds of 51, one of 52, exact partition")


# ---------------------------------------------------------------------------
# Optional full-data qualitative check
# ---------------------------------------------------------------------------

@pytest.mark.skipif(
    not (os.environ.get("FLOWREGION_CAMELS_SERIES")
         and os.environ.get("FLOWREGION_CAMELS_ATTRIBUTES")),
    reason="set FLOWREGION_CAMELS_SERIES and FLOWREGION_CAMELS_ATTRIBUTES "
           "to run the full-data qualitative check",
)
def test_full_data_qualitative():
    records, _ = load_dataset(
        os.environ["FLOWREGION_CAMELS_SERIES"],
        os.environ["FLOWREGION_CAMELS_ATTRIBUTES"],
        IngestConfig(workers=WORKERS),
    )
    report = evaluate_all(records, ForestParams(n_trees=2000), seed=42, k=10,
                          workers=WORKERS)
    best_improvement = np.nanmax(report.relative_scores)
    assert 10.0 <= best_improvement <= 25.0
    full = report.groups.index("STP")
    for ti in range(len(report.targets)):
        best = report.rmse[ti].min()
        static = report.rmse[ti, report.groups.index("S")]
        gap = 100.0 * (report.rmse[ti, full] - best) / static
        assert gap <= 4.0
    ok("full-data relative improvements in the 10-25% band; full group within 4 points")
