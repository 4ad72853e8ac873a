import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowregion import errors
from flowregion.engine import (
    FEATURE_NAMES,
    FeatureConfig,
    FeatureRow,
    INTEGER_FEATURES,
    FeatureVector,
    extract_batch,
    extract_features,
    read_feature_table,
    write_feature_table,
)
from flowregion import distributional, engine
from flowregion.errors import ConfigError, ExtractionFailed, ParseError
from flowregion.series import TimeSeries

from conftest import ar1, daily_series, sine, white_noise


class TestFeatureVector:
    def test_canonical_names_count(self):
        assert len(FEATURE_NAMES) == 28

    def test_round_trip_dict(self, rng):
        values = rng.normal(size=28)
        for name in ("firstzero_ac", "crossing_points", "flat_spots", "peak", "trough"):
            values[FEATURE_NAMES.index(name)] = 3.0
        fv = FeatureVector(values)
        assert FeatureVector.from_dict(fv.as_dict()).as_dict() == fv.as_dict()

    def test_rejects_non_finite(self):
        values = np.ones(28)
        values[0] = np.nan
        with pytest.raises(ValueError, match="x_acf1"):
            FeatureVector(values)

    def test_rejects_fractional_counts(self):
        values = np.ones(28)
        values[FEATURE_NAMES.index("peak")] = 1.5
        with pytest.raises(ValueError, match="peak"):
            FeatureVector(values)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            FeatureVector(np.ones(27))


class TestExtractFeatures:
    def test_seasonal_series_features(self):
        ts = daily_series(sine(12410, noise_sd=0.1, seed=1))
        fv = extract_features(ts)
        assert fv["seasonal_strength"] >= 0.9
        assert fv["seas_acf1"] >= 0.8

    def test_white_noise_features(self):
        fv = extract_features(daily_series(white_noise(12410, seed=2)))
        assert fv["entropy"] >= 0.95
        assert fv["x_acf10"] <= 0.01

    def test_determinism(self):
        ts = daily_series(sine(1460, noise_sd=0.2, seed=3))
        a = extract_features(ts)
        b = extract_features(daily_series(sine(1460, noise_sd=0.2, seed=3)))
        np.testing.assert_array_equal(a.values, b.values)

    def test_affine_invariance(self):
        x = sine(1460, noise_sd=0.3, seed=4)
        a = extract_features(daily_series(x))
        b = extract_features(daily_series(2.5 * x + 40.0))
        np.testing.assert_allclose(a.values, b.values, atol=1e-8)

    def test_error_annotated_with_feature(self):
        constant = daily_series(np.zeros(800))
        with pytest.raises(ExtractionFailed) as err:
            extract_features(constant)
        assert "standardize" in str(err.value)

    def test_config_is_honoured(self):
        x = sine(1460, noise_sd=0.2, seed=5)
        default = extract_features(daily_series(x))
        raw = extract_features(daily_series(x), FeatureConfig(entropy_spans=()))
        assert default["entropy"] != raw["entropy"]


def _batch_tasks(n_catchments=2, bad=None):
    tasks = []
    for i in range(n_catchments):
        cid = f"c{i:02d}"
        for k, kind in enumerate(("temperature", "precipitation", "streamflow")):
            x = sine(1095, noise_sd=0.3, seed=10 * i + k)
            if bad == (cid, kind):
                x = np.zeros(1095)  # ZeroVariance downstream
            tasks.append((cid, kind, TimeSeries(x)))
    return tasks


class TestExtractBatch:
    def test_cardinality_and_order(self):
        rows, exclusions = extract_batch(_batch_tasks(3))
        assert len(rows) == 9 and not exclusions
        keys = [(r.catchment_id, r.variable) for r in rows]
        assert keys == sorted(keys)

    def test_drop_policy_excludes_with_reason(self):
        rows, exclusions = extract_batch(
            _batch_tasks(3, bad=("c01", "streamflow")), policy="drop"
        )
        assert len(rows) == 8
        assert len(exclusions) == 1
        assert exclusions[0].catchment_id == "c01"
        assert "ZeroVariance" in exclusions[0].reason

    def test_exact_linear_series_kept_under_drop_policy(self):
        t = np.arange(1, 3651)
        tasks = [("c00", "streamflow", TimeSeries(np.sin(2.0 * np.pi * t / 365))),
                 ("c01", "streamflow", TimeSeries(t.astype(float)))]
        rows, exclusions = extract_batch(tasks, policy="drop")
        assert not exclusions and len(rows) == 2
        for row in rows:
            assert np.isfinite(row.features.values).all()
            assert row.features["nonlinearity"] == 0.0

    def test_quantised_temperature_kept_under_drop_policy(self):
        # whole-degree rounding leaves five levels: the cubic nonlinearity
        # design is rank-deficient, which once dropped the series
        t = np.arange(3650)
        tasks = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            x = np.round(0.1 * rng.gamma(2.0, size=3650)
                         + 1.67 * np.cos(2.0 * np.pi * t / 365) + 20.3)
            tasks.append((f"c{seed:02d}", "temperature", TimeSeries(x)))
        rows, exclusions = extract_batch(tasks, policy="drop")
        assert not exclusions and len(rows) == 6
        for row in rows:
            assert 0.0 <= row.features["nonlinearity"] <= 10.0

    def test_all_zero_nonlinearity_response_kept_under_drop_policy(self):
        # y = x[2:] of the standardized series is all zero: an exact fit
        x = np.ones(800)
        x[:2] = (0.0, 2.0)
        rows, exclusions = extract_batch([("c0", "streamflow", TimeSeries(x))],
                                         policy="drop")
        assert not exclusions and rows[0].features["nonlinearity"] == 0.0

    def test_extreme_scales_extract_like_unit_scale(self):
        x = white_noise(3650)
        scales = (1.0, 1e-300, 1e-200, 1e200, 1e300)
        tasks = [(f"c{i}", "streamflow", TimeSeries(x * s))
                 for i, s in enumerate(scales)]
        rows, exclusions = extract_batch(tasks, policy="drop")
        assert not exclusions and len(rows) == len(scales)
        unit = rows[0].features
        for row in rows[1:]:
            assert np.isfinite(row.features.values).all()
            for name in FEATURE_NAMES:
                if name in INTEGER_FEATURES:
                    assert row.features[name] == unit[name], name
                else:
                    assert abs(row.features[name] - unit[name]) <= 1e-9, name

    def test_non_finite_feature_is_a_named_exclusion(self, monkeypatch):
        monkeypatch.setattr(distributional, "nonlinearity", lambda z: float("nan"))
        rows, exclusions = extract_batch(_batch_tasks(1), policy="drop")
        assert not rows and len(exclusions) == 3
        for exc in exclusions:
            assert exc.reason.startswith("NonFinite in feature vector")
            assert "nonlinearity" in exc.reason

    def test_too_wide_daniell_span_excludes_only_that_series(self):
        # 547 periodogram ordinates at 3 years, 1,824 at 10 years
        tasks = [("c00", "streamflow", TimeSeries(sine(1095, noise_sd=0.3, seed=1))),
                 ("c01", "streamflow", TimeSeries(sine(3650, noise_sd=0.3, seed=2)))]
        rows, exclusions = extract_batch(tasks, FeatureConfig(entropy_spans=(600,)),
                                         policy="drop")
        assert [r.catchment_id for r in rows] == ["c01"]
        assert [e.catchment_id for e in exclusions] == ["c00"]
        assert exclusions[0].reason.startswith("TooShort in entropy")

    @pytest.mark.parametrize("bad", [{"seasonal_span": 4}, {"seasonal_span": 1},
                                     {"trend_span": 1}, {"lowpass_span": 0},
                                     {"entropy_spans": (3, 0)}])
    def test_bad_span_rejected_before_any_work(self, monkeypatch, bad):
        def no_work(*args, **kwargs):
            raise AssertionError("a series was extracted")

        monkeypatch.setattr(engine, "parallel_map", no_work)
        with pytest.raises(ConfigError, match="span"):
            extract_batch(_batch_tasks(2), FeatureConfig(**bad), policy="drop")

    @pytest.mark.parametrize("bad", [{"seasonal_span": "wide"}, {"seasonal_span": 7.0},
                                     {"seasonal_span": True}, {"trend_span": "x"},
                                     {"lowpass_span": 9.0}, {"entropy_spans": 3},
                                     {"entropy_spans": (3.5,)}, {"entropy_spans": [3, 3]}])
    def test_wrongly_typed_span_is_a_config_error(self, bad):
        with pytest.raises(ConfigError, match="span"):
            FeatureConfig(**bad)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="policy"):
            extract_batch(_batch_tasks(1), policy="bogus")

    def test_strict_policy_raises(self):
        with pytest.raises(ExtractionFailed):
            extract_batch(_batch_tasks(2, bad=("c00", "temperature")), policy="strict")

    def test_worker_count_does_not_change_output(self):
        tasks = _batch_tasks(2)
        serial, _ = extract_batch(tasks, workers=1)
        parallel, _ = extract_batch(tasks, workers=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert (a.catchment_id, a.variable) == (b.catchment_id, b.variable)
            np.testing.assert_array_equal(a.features.values, b.features.values)


def test_pool_starts_no_more_workers_than_items(monkeypatch):
    started = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(engine, "_worker_job", None)
    assert engine.parallel_map(pow, [2, 3, 4], 16, shared=10) == [100, 1000, 10000]
    assert started == [3]


DAYS = 3650
DAY = np.arange(DAYS)


def _degenerate_series(family, seed, knob):
    """One legal but degenerate 3,650-day series; ``knob`` in [0, 1]."""
    rng = np.random.default_rng(seed)
    cycle = np.cos(2.0 * np.pi * DAY / 365)
    if family == "quantised":  # a temperature rounded to whole degrees
        return np.round((0.5 + 4.0 * knob) * (0.1 * rng.gamma(2.0, size=DAYS)
                                              + 1.67 * cycle) + 20.3)
    if family == "binary":
        return (rng.random(DAYS) < 0.02 + 0.96 * knob).astype(float)
    if family == "intermittent":  # zero-inflated flow, wetter in one season
        wet = rng.random(DAYS) < knob * (0.5 + 0.5 * cycle)
        return np.where(wet, rng.gamma(0.5, size=DAYS), 0.0)
    if family == "sine":
        return (0.1 + 10.0 * knob) * np.sin(2.0 * np.pi * DAY / 365 + seed % 7)
    return (knob - 0.5) * DAY + seed % 100  # an exact ramp


class TestExtractionProperties:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.0, 3.0),
           phi=st.floats(-0.5, 0.9), shift=st.floats(-100.0, 100.0))
    def test_features_unchanged_under_affine_maps(self, seed, amplitude, phi, shift):
        # b moves with a: an offset far above a * x would round x away
        x = amplitude * np.sin(2.0 * np.pi * DAY / 365) + ar1(DAYS, phi, seed=seed)
        base = extract_features(TimeSeries(x))
        for a in (1e-300, 1e-3, 1e3, 1e300):
            moved = extract_features(TimeSeries(a * x + a * shift))
            for name in FEATURE_NAMES:
                if name in INTEGER_FEATURES:
                    assert moved[name] == base[name], (a, name)
                else:
                    assert abs(moved[name] - base[name]) <= 1e-9, (a, name)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), knob=st.floats(0.0, 1.0))
    def test_degenerate_series_give_vector_or_named_exclusion(self, seed, knob):
        families = ("quantised", "binary", "intermittent", "sine", "ramp")
        tasks = [(f, "streamflow", TimeSeries(_degenerate_series(f, seed, knob)))
                 for f in families]
        rows, exclusions = extract_batch(tasks, policy="drop")
        done = [r.catchment_id for r in rows] + [e.catchment_id for e in exclusions]
        assert sorted(done) == sorted(families)
        for row in rows:
            assert np.isfinite(row.features.values).all()
        for exc in exclusions:
            name = exc.reason.split()[0].rstrip(":")
            assert issubclass(getattr(errors, name), errors.FlowRegionError), exc.reason


class TestFeatureTableIO:
    def test_round_trip_bytes(self, rng, tmp_path):
        rows, _ = extract_batch(_batch_tasks(2))
        quoted = {"c00": "synth,000", "c01": 'a"b'}  # ids that CSV must quote
        rows += [FeatureRow(quoted[r.catchment_id], r.variable, r.features) for r in rows]
        path = tmp_path / "features.csv"
        write_feature_table(path, rows)
        reread = read_feature_table(path)
        assert list(reread) == [(r.catchment_id, r.variable) for r in rows]
        second = tmp_path / "again.csv"
        write_feature_table(second, [FeatureRow(cid, variable, FeatureVector(values))
                                     for (cid, variable), values in reread.items()])
        assert path.read_bytes() == second.read_bytes()

    def test_values_survive_round_trip(self, tmp_path):
        rows, _ = extract_batch(_batch_tasks(1))
        path = tmp_path / "features.csv"
        write_feature_table(path, rows)
        reread = read_feature_table(path)
        key = (rows[0].catchment_id, rows[0].variable)
        assert reread[key].tobytes() == rows[0].features.values.tobytes()

    def test_corrupt_value_rejected(self, tmp_path):
        rows, _ = extract_batch(_batch_tasks(1))
        path = tmp_path / "features.csv"
        write_feature_table(path, rows)
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[2] = "nan"
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"features.csv:2: non-finite .*: x_acf1"):
            read_feature_table(path)

    @pytest.mark.parametrize("bad, message", [
        # (line, field, value) edits; the first bad line is named whatever follows it
        ([(3, 2, "nan"), (5, None, None)], r":3: non-finite .*: x_acf1"),
        ([(5, 2, "nan"), (3, None, None)], r":3: expected 30 fields, got 29"),
        ([(4, 17, "2.5"), (6, 2, "x")], r":4: flat_spots must be integral"),
        ([(6, 2, "x"), (4, 17, "2.5")], r":4: flat_spots must be integral"),
        ([(2, 2, "inf")], r":2: non-finite .*: x_acf1"),
        ([(7, 0, "c00"), (7, 1, "precipitation")], r":7: duplicate row \(c00, precipitation\)"),
    ])
    def test_first_bad_row_of_the_block_is_named(self, tmp_path, bad, message):
        rows, _ = extract_batch(_batch_tasks(2))
        path = tmp_path / "features.csv"
        write_feature_table(path, rows)
        lines = path.read_text().splitlines()
        for line, field, value in bad:
            parts = lines[line - 1].split(",")
            if field is None:
                parts.pop()
            else:
                parts[field] = value
            lines[line - 1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="features.csv" + message):
            read_feature_table(path)

    def test_block_conversion_is_float_of_each_field(self, tmp_path):
        # 600 rows: more than two chunks, the last one partial
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2**63, size=(600, 28), dtype=np.int64).view(np.float64)
        values = np.where(np.isfinite(bits), bits, 1.0)
        values[:, [FEATURE_NAMES.index(n) for n in engine.INTEGER_FEATURES]] = 3.0
        path = tmp_path / "features.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(["catchment_id", "variable", *FEATURE_NAMES]) + "\n")
            for i, row in enumerate(values.tolist()):
                texts = [f"{v:.{i % 20}e}" if i % 3 else repr(v) for v in row]
                fh.write(f"c{i:03d},streamflow," + ",".join(texts) + "\n")
        table = read_feature_table(path)
        with open(path, encoding="utf-8") as fh:
            expected = [[float(v) for v in line.split(",")[2:]] for line in fh.readlines()[1:]]
        assert np.array(list(table.values())).tobytes() == np.array(expected).tobytes()

    def test_header_check(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("nope\n")
        with pytest.raises(ParseError, match="bogus.csv:1: "):
            read_feature_table(path)

    def test_blank_row_skipped_and_short_row_named(self, tmp_path):
        rows, _ = extract_batch(_batch_tasks(1))
        path = tmp_path / "features.csv"
        write_feature_table(path, rows)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [""] + lines[2:] + [""]) + "\n")
        assert list(read_feature_table(path)) == [(r.catchment_id, r.variable) for r in rows]
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"features\.csv:3: expected 30 fields, got 29"):
            read_feature_table(path)
        lines[2] += ",x"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"features\.csv:3: could not convert"):
            read_feature_table(path)
