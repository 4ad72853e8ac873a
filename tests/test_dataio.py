import csv
import datetime
import math
import random
import shutil

import numpy as np
import pytest

from flowregion import cli, dataio
from flowregion.dataio import (
    IngestConfig,
    load_dataset,
    read_attributes,
    read_series_file,
    STATIC_ATTRIBUTES,
    VARIABLE_KINDS,
    window_days,
)
from flowregion.engine import extract_features
from flowregion.errors import ConfigError, IncompleteRecord, ParseError, UnknownAttribute
from flowregion.series import TimeSeries

from conftest import sine


def write_series(path, start, values, skip=(), mutate=None):
    day = start
    one = datetime.timedelta(days=1)
    lines = ["date,value"]
    i = 0
    while i < len(values):
        if day not in skip:
            lines.append(f"{day.isoformat()},{float(values[i])!r}")
            i += 1
        day += one
    text = "\n".join(lines) + "\n"
    if mutate:
        text = mutate(text)
    path.write_text(text)


def attribute_line(cid, value=0.5):
    return cid + "," + ",".join(str(value) for _ in STATIC_ATTRIBUTES)


def kept_days(cfg):
    """The days of the window that every series file must hold."""
    days, keep = window_days(cfg.start, cfg.end)
    return days[keep].tolist()


def small_config(**overrides):
    base = dict(
        start=datetime.date(1999, 1, 1),
        end=datetime.date(2001, 12, 31),
        period=365,
        workers=1,
    )
    base.update(overrides)
    return IngestConfig(**base)


@pytest.fixture
def dataset(tmp_path):
    """Three catchments over 1999-2001 (2000 is a leap year)."""
    series_dir = tmp_path / "series"
    series_dir.mkdir()
    cfg = small_config()
    days = kept_days(cfg)
    attr_lines = ["catchment_id," + ",".join(STATIC_ATTRIBUTES)]
    per_catchment = {}
    calendar_start = datetime.date(1999, 1, 1)
    for i, cid in enumerate(("alpha", "beta", "gamma")):
        temp = sine(len(days), amplitude=10.0, noise_sd=1.0, seed=i) + 12.0
        spread = 4.0 + np.abs(np.random.default_rng(100 + i).normal(size=len(days)))
        prcp = sine(len(days), amplitude=1.0, noise_sd=0.5, seed=50 + i) + 5.0
        flow = sine(len(days), amplitude=1.5, noise_sd=0.5, seed=80 + i) + 9.0
        # files carry a Feb 29 row (copy of Feb 28) that ingestion must drop
        leap = datetime.date(2000, 2, 29)

        def with_leap(vals):
            out = []
            day = calendar_start
            one = datetime.timedelta(days=1)
            k = 0
            while k < len(vals):
                if day == leap:
                    out.append(out[-1])
                else:
                    out.append(vals[k])
                    k += 1
                day += one
            return out

        files = {
            "tmin": with_leap(temp - spread),
            "tmax": with_leap(temp + spread),
            "precipitation": with_leap(prcp),
            "streamflow": with_leap(flow),
        }
        for variable, values in files.items():
            day = calendar_start
            one = datetime.timedelta(days=1)
            lines = ["date,value"]
            for v in values:
                lines.append(f"{day.isoformat()},{float(v)!r}")
                day += one
            (series_dir / f"{cid}_{variable}.csv").write_text("\n".join(lines) + "\n")
        attr_lines.append(attribute_line(cid, value=0.1 * (i + 1)))
        per_catchment[cid] = temp
    attributes = tmp_path / "attributes.csv"
    attributes.write_text("\n".join(attr_lines) + "\n")
    return series_dir, attributes, per_catchment


def calendar_oracle(start, end):
    """Every day from ``start`` to ``end`` and whether it is kept, one day at a time."""
    days = []
    day = start
    while day <= end:
        days.append(day)
        day += datetime.timedelta(days=1)
    return days, [(day.month, day.day) != (2, 29) for day in days]


class TestWindowDays:
    def test_full_window_calendar_oracle(self):
        cfg = IngestConfig()
        days = window_days(cfg.start, cfg.end)[0]
        assert days.size == 34 * 365 + 9  # 1980, 1984, ..., 2012 are leap years
        assert len(kept_days(cfg)) == 34 * 365 == 12410

    def test_no_feb_29(self):
        days = kept_days(small_config())
        assert datetime.date(2000, 2, 29) not in days
        assert len(days) == 3 * 365

    @pytest.mark.parametrize("start, end", [
        ((1999, 1, 1), (2001, 12, 31)),
        ((1899, 12, 1), (1900, 3, 31)),  # 1900 is not a leap year
        ((1969, 2, 1), (1972, 3, 1)),  # across 1970, where datetime64 counts from
        ((2000, 2, 29), (2004, 2, 29)),
        ((2000, 2, 29), (2000, 2, 29)),
        ((2000, 1, 2), (2000, 1, 1)),
    ])
    def test_matches_day_by_day_loop(self, start, end):
        start, end = datetime.date(*start), datetime.date(*end)
        days, keep = window_days(start, end)
        assert (days.tolist(), keep.tolist()) == calendar_oracle(start, end)


class TestIngestConfig:
    @pytest.mark.parametrize("bad, message", [
        ({"period": 1}, "period must be >= 2"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"policy": "bogus"}, "unknown batch policy"),
        ({"start": datetime.date(2000, 1, 2), "end": datetime.date(2000, 1, 1)},
         "holds no day"),
        ({"start": datetime.date(2000, 2, 29), "end": datetime.date(2000, 2, 29)},
         "holds no day"),
    ])
    def test_bad_value_rejected_on_construction(self, bad, message):
        with pytest.raises(ConfigError, match=message):
            IngestConfig(**bad)


def oracle_read_series_file(path):
    """The per-line parser ``read_series_file`` replaced, kept as the reference."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header.split(",")[:2] != ["date", "value"]:
            raise ParseError(f"{path}:1: expected 'date,value' header, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected two fields, got {line!r}")
            try:
                day = datetime.date.fromisoformat(parts[0])
                value = float(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if day in out:
                raise ParseError(f"{path}:{lineno}: duplicate date {parts[0]}")
            out[day] = value
    return out


def oracle_window_values(mapping, days, label):
    """The dict-lookup windowing ``_window_values`` replaced, kept as the reference."""
    values = np.empty(len(days))
    missing = 0
    for i, day in enumerate(days):
        v = mapping.get(day)
        if v is None:
            missing += 1
        else:
            values[i] = v
    if missing:
        raise IncompleteRecord(f"{label}: {missing} day(s) missing in the window")
    if not np.isfinite(values).all():
        raise IncompleteRecord(f"{label}: non-finite values in the window")
    return values


def outcome(fn):
    """``fn()`` as comparable bytes, or the type and text of its input error."""
    try:
        result = fn()
    except (ParseError, IncompleteRecord) as exc:
        return type(exc).__name__, str(exc)
    return "ok", result.tobytes()


def calendar_lines(first, last):
    """``date,value`` lines for every calendar day, Feb 29 included."""
    day, one, lines = first, datetime.timedelta(days=1), []
    rng = np.random.default_rng(first.toordinal())
    while day <= last:
        lines.append(f"{day.isoformat()},{rng.normal(10.0, 3.0)!r}")
        day += one
    return lines


def variant(name):
    """A ``date,value`` file covering 1999-2001 plus days outside it, in one
    of the shapes that must parse like the per-line parser."""
    lines = calendar_lines(datetime.date(1998, 12, 1), datetime.date(2002, 1, 31))
    if name == "unsorted":
        random.Random(7).shuffle(lines)
    if name == "nan_inside":
        lines[400] = lines[400].split(",")[0] + ",nan"
    if name == "inf_inside":
        lines[800] = lines[800].split(",")[0] + ",-inf"
    if name == "nan_outside":
        lines[3] = lines[3].split(",")[0] + ",nan"
    if name == "gap":
        del lines[500:502]
    if name == "spelled_values":  # forms float() accepts
        lines[40] = lines[40].split(",")[0] + ", 1_000.5 "
        lines[41] = lines[41].split(",")[0] + ",1e-3"
        lines[42] = lines[42].split(",")[0] + ",-0"
        lines[43] = lines[43].split(",")[0] + ",\u0661\u0662.5"  # Arabic-Indic digits
    if name == "far_outside":
        lines += ["0001-01-01,1.0", "9999-12-31,2.0", "1900-02-28,3.0"]
    text = "date,value\n" + "\n".join(lines) + "\n"
    if name == "crlf":
        text = text.replace("\n", "\r\n")
    if name == "blank_lines":
        text = text.replace("1999-07-04,", "\n\n1999-07-04,") + "\n\n"
    if name == "no_trailing_newline":
        text = text.rstrip("\n")
    if name == "header_only":
        text = "date,value"
    if name == "blank_body":
        text = "date,value\n\n\n"
    return text


VARIANTS = ("plain", "unsorted", "nan_inside", "inf_inside", "nan_outside", "gap",
            "spelled_values", "far_outside", "crlf", "blank_lines",
            "no_trailing_newline", "header_only", "blank_body")


class TestReadSeriesFile:
    @pytest.mark.parametrize("name", VARIANTS)
    def test_agrees_with_per_line_parser(self, tmp_path, name):
        path = tmp_path / "c_streamflow.csv"
        path.write_bytes(variant(name).encode())
        parsed = read_series_file(path)
        reference = oracle_read_series_file(path)
        assert len(parsed) == len(reference)
        assert [datetime.date.fromordinal(int(d)) for d in parsed["day"]] == list(reference)
        assert parsed["value"].tobytes() == np.array(list(reference.values())).tobytes()
        cfg = small_config()
        new = outcome(lambda: dataio._window_values(
            read_series_file(path), cfg, window_days(cfg.start, cfg.end)[1], "c/streamflow"))
        old = outcome(lambda: oracle_window_values(
            oracle_read_series_file(path), kept_days(cfg), "c/streamflow"))
        assert new == old
        if name.endswith("_inside"):
            assert old == ("IncompleteRecord", "c/streamflow: non-finite values in the window")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("bad", [
        "1999-01-05,1.0,2.0",  # three fields
        "1999-01-05",  # one field
        "1981-02-29,1.0",
        "1900-02-29,1.0",
        "1999-04-31,1.0",
        "1980-13-01,1.0",
        "1980-1-01,1.0",
        "0000-01-01,1.0",
        "1999-01-01,2.0",  # duplicate of line 2
        "1999-01-05,abc",
        "1999-01-05,",
        " 1999-01-05,1.0",
        "1999/01/05,1.0",
        "1999-01-05,1.0,",
        "1999-01-051.0",
        # lines of 1 to 11 bytes (a line of 0 bytes is blank and skipped)
        *["1999-01-05,1.0"[:size] for size in range(1, 10)],
        ",",
        "1999-01-0,",
        "1999-01-051",
        "1999-01-0,5",  # comma at byte 9
        "1999-01-0,51.0",
        "1999-01-051,0",  # comma at byte 11
        "1999-01-05 ,1.0",
        "1999-01-0\u0665,1.0",  # a non-ASCII byte in the date
        "1999\u201301-05,1.0",
        "\uff11999-01-05,1.0",
        "1999-01-05\u00a0,1.0",
    ])
    @pytest.mark.parametrize("later", ["", "1999-01-02,x\n"])
    def test_first_bad_line_named_like_per_line_parser(self, tmp_path, bad, newline,
                                                       later):
        # line 4 is bad; when a later line is bad too, the first one is named
        text = f"date,value\n1999-01-01,1.0\n\n{bad}\n1999-01-03,3.0\n{later}"
        path = tmp_path / "c_tmin.csv"
        path.write_bytes(text.replace("\n", newline).encode())
        with pytest.raises(ParseError) as new:
            read_series_file(path)
        with pytest.raises(ParseError) as old:
            oracle_read_series_file(path)
        assert str(new.value) == str(old.value)
        assert str(new.value).startswith(f"{path}:4: ")

    @pytest.mark.parametrize("date", ["19990105", "1999-W01-2", "1999W012"])
    def test_only_extended_calendar_dates_parse(self, tmp_path, date):
        path = tmp_path / "c_tmax.csv"
        path.write_text(f"date,value\n1999-01-01,1.0\n{date},2.0\n")
        with pytest.raises(ParseError, match=rf"c_tmax\.csv:3: Invalid isoformat string: '{date}'"):
            read_series_file(path)

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "c_tmin.csv"
        path.write_bytes(b"date,value\r\n1999-01-01,1.0\r\n1999-01-02,\xff\r\n")
        with pytest.raises(ParseError, match=r"c_tmin\.csv:3: invalid start byte"):
            read_series_file(path)

    def test_parse_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "x_tmin.csv"
        path.write_text("date,value\n1999-01-01,1.0\nnot-a-date,2.0\n")
        with pytest.raises(ParseError, match=r"x_tmin\.csv:3"):
            read_series_file(path)

    def test_duplicate_date_rejected(self, tmp_path):
        path = tmp_path / "x_tmax.csv"
        path.write_text("date,value\n1999-01-01,1.0\n1999-01-01,2.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            read_series_file(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "x_flow.csv"
        path.write_text("time,flow\n1999-01-01,1.0\n")
        with pytest.raises(ParseError, match="header"):
            read_series_file(path)


class TestReadAttributes:
    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "attributes.csv"
        path.write_text("catchment_id,elevation\nc0,4.2\n")
        with pytest.raises(UnknownAttribute, match="elevation"):
            read_attributes(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "attributes.csv"
        header = "catchment_id," + ",".join(STATIC_ATTRIBUTES[:-1])
        path.write_text(header + "\n")
        with pytest.raises(ParseError, match=STATIC_ATTRIBUTES[-1]):
            read_attributes(path)

    def test_log_transform_switch(self, tmp_path):
        path = tmp_path / "attributes.csv"
        header = "catchment_id," + ",".join(STATIC_ATTRIBUTES)
        row = "c0," + ",".join(
            "100.0" if a.startswith("log_") else "0.5" for a in STATIC_ATTRIBUTES
        )
        path.write_text(header + "\n" + row + "\n")
        raw = read_attributes(path, log_transform=False)
        logged = read_attributes(path, log_transform=True)
        elev, forest = (STATIC_ATTRIBUTES.index(a) for a in ("log_elev_mean", "frac_forest"))
        assert raw["c0"][elev] == 100.0
        assert logged["c0"][elev] == pytest.approx(2.0)
        assert logged["c0"][forest] == 0.5


    @pytest.mark.parametrize("edits, log_transform, message", [
        # (line, attribute or None for a cut row, value); the first bad line is named
        ([(3, "sand_frac", "nan"), (5, None, None)], False, ":3: non-finite sand_frac"),
        ([(5, "sand_frac", "nan"), (3, None, None)], False, ":3: expected 20 fields"),
        ([(4, "log_slope_mean", "0"), (2, "frac_forest", "inf")], True,
         ":2: non-finite frac_forest"),
        ([(4, "log_slope_mean", "0")], True, ":4: log_slope_mean must be positive"),
        ([(4, "log_slope_mean", "0")], False, None),
        ([(3, "clay_frac", "x"), (2, "catchment_id", "c3")], False,
         ":3: could not convert string to float: 'x'"),
        ([(5, "catchment_id", "c1")], False, ":5: duplicate catchment c1"),
    ])
    def test_first_bad_row_of_the_block_is_named(self, tmp_path, edits, log_transform,
                                                 message):
        header = ["catchment_id", *reversed(STATIC_ATTRIBUTES)]  # any column order
        lines = [",".join(header)] + [
            ",".join([f"c{i}"] + [f"{10.0 + i + k / 8}" for k in range(19)])
            for i in range(5)]
        for line, name, value in edits:
            parts = lines[line - 1].split(",")
            if name is None:
                parts.pop()
            else:
                parts[header.index(name)] = value
            lines[line - 1] = ",".join(parts)
        path = tmp_path / "attributes.csv"
        path.write_text("\n".join(lines) + "\n")
        if message is None:
            values = read_attributes(path, log_transform)["c2"]
            assert values[STATIC_ATTRIBUTES.index("log_slope_mean")] == 0.0
            return
        with pytest.raises(ParseError, match="attributes.csv" + message):
            read_attributes(path, log_transform)

    def test_values_follow_float_and_log10_of_each_field(self, tmp_path):
        rng = np.random.default_rng(2)
        header = ["catchment_id", *STATIC_ATTRIBUTES]
        texts = [[repr(float(v)) for v in row] for row in rng.lognormal(size=(30, 19))]
        path = tmp_path / "attributes.csv"
        path.write_text("\n".join([",".join(header)] + [
            ",".join([f"c{i:02d}", *row]) for i, row in enumerate(texts)]) + "\n")
        for log_transform in (False, True):
            got = read_attributes(path, log_transform)
            for i, row in enumerate(texts):
                want = [math.log10(float(v)) if log_transform and name in dataio.LOG_ATTRIBUTES
                        else float(v) for name, v in zip(STATIC_ATTRIBUTES, row)]
                assert got[f"c{i:02d}"].tobytes() == np.array(want).tobytes()


class TestLoadDataset:
    def test_three_catchments_loaded(self, dataset):
        series_dir, attributes, _ = dataset
        records, exclusions = load_dataset(series_dir, attributes, small_config())
        assert [r.catchment_id for r in records] == ["alpha", "beta", "gamma"]
        assert not exclusions
        assert records[0].static["log_elev_mean"] == pytest.approx(0.1)

    def test_temperature_is_min_max_average(self, dataset):
        series_dir, attributes, per_catchment = dataset
        records, _ = load_dataset(series_dir, attributes, small_config())
        expected = extract_features(TimeSeries(per_catchment["alpha"]))
        # (tmin + tmax) / 2 reconstructs the temperature up to 1-ulp rounding
        np.testing.assert_allclose(records[0].temperature.values, expected.values,
                                   rtol=1e-9, atol=1e-9)

    def test_missing_year_drops_catchment(self, dataset):
        series_dir, attributes, _ = dataset
        # truncate one series: beta now lacks coverage
        path = series_dir / "beta_streamflow.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:400]) + "\n")
        records, exclusions = load_dataset(series_dir, attributes, small_config())
        assert [r.catchment_id for r in records] == ["alpha", "gamma"]
        assert exclusions and exclusions[0].catchment_id == "beta"

    def test_missing_file_drops_catchment(self, dataset):
        series_dir, attributes, _ = dataset
        (series_dir / "gamma_tmin.csv").unlink()
        records, exclusions = load_dataset(series_dir, attributes, small_config())
        assert [r.catchment_id for r in records] == ["alpha", "beta"]
        assert "gamma" in {e.catchment_id for e in exclusions}

    def test_strict_policy_raises(self, dataset):
        series_dir, attributes, _ = dataset
        (series_dir / "gamma_tmin.csv").unlink()
        with pytest.raises(IncompleteRecord):
            load_dataset(series_dir, attributes, small_config(policy="strict"))

    @pytest.mark.parametrize("start, end", [((2000, 1, 2), (2000, 1, 1)),
                                            ((2000, 2, 29), (2000, 2, 29))])
    def test_empty_window_rejected_before_any_work(self, tmp_path, start, end):
        # neither input exists: the window is checked before either is read
        with pytest.raises(ConfigError, match="holds no day"):
            cfg = small_config(start=datetime.date(*start), end=datetime.date(*end))
            load_dataset(tmp_path / "series", tmp_path / "attributes.csv", cfg)

    def test_extraction_failure_excludes_catchment(self, dataset):
        series_dir, attributes, _ = dataset
        cfg = small_config()
        days = kept_days(cfg)
        constant = ["date,value"] + [f"{d.isoformat()},3.0" for d in days]
        (series_dir / "alpha_precipitation.csv").write_text("\n".join(constant) + "\n")
        records, exclusions = load_dataset(series_dir, attributes, cfg)
        assert [r.catchment_id for r in records] == ["beta", "gamma"]
        assert any(e.catchment_id == "alpha" and "ZeroVariance" in e.reason
                   for e in exclusions)


def add_catchment(series_dir, attributes, source, cid):
    """Copy catchment ``source`` under the id ``cid``."""
    for variable in dataio.SERIES_VARIABLES:
        shutil.copy(series_dir / f"{source}_{variable}.csv",
                    series_dir / f"{cid}_{variable}.csv")
    with open(attributes, "a") as fh:
        fh.write(attribute_line(cid, value=0.7) + "\n")


def replace_line(path, index, text):
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def troubled(dataset):
    """Five catchments, four of them failing in different ways: a gap (beta),
    a malformed line (delta), a series whose extraction fails (epsilon) and a
    missing file (gamma)."""
    series_dir, attributes, _ = dataset
    add_catchment(series_dir, attributes, "alpha", "delta")
    add_catchment(series_dir, attributes, "alpha", "epsilon")
    path = series_dir / "beta_streamflow.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:300] + lines[302:]) + "\n")
    replace_line(series_dir / "delta_precipitation.csv", 10, "1999-01-10;4.2")
    days = kept_days(small_config())
    constant = ["date,value"] + [f"{d.isoformat()},3.0" for d in days]
    (series_dir / "epsilon_precipitation.csv").write_text("\n".join(constant) + "\n")
    (series_dir / "gamma_tmin.csv").unlink()
    return series_dir, attributes


class TestIngestFailures:
    def test_malformed_file_excludes_only_its_catchment(self, dataset):
        series_dir, attributes, _ = dataset
        path = series_dir / "gamma_streamflow.csv"
        replace_line(path, 100, "1999-04-10,1.5,x")
        records, exclusions = load_dataset(series_dir, attributes, small_config())
        assert [r.catchment_id for r in records] == ["alpha", "beta"]
        assert [(e.catchment_id, e.variable, e.reason) for e in exclusions] == [
            ("gamma", "*",
             f"ParseError: {path}:101: expected two fields, got '1999-04-10,1.5,x'"),
        ]

    def test_malformed_file_aborts_strict_load(self, dataset):
        series_dir, attributes, _ = dataset
        path = series_dir / "gamma_streamflow.csv"
        lineno = len(path.read_text().splitlines()) + 1
        path.write_text(path.read_text() + "1999-01-01,1.0\n")
        with pytest.raises(ParseError, match=rf"{path.name}:{lineno}: duplicate date"):
            load_dataset(series_dir, attributes, small_config(policy="strict"))

    def test_strict_raises_first_ingest_error_in_catchment_order(self, troubled):
        series_dir, attributes = troubled
        with pytest.raises(IncompleteRecord, match="beta/streamflow: 2 day"):
            load_dataset(series_dir, attributes, small_config(policy="strict"))

    def test_malformed_attributes_stay_fatal(self, dataset):
        series_dir, attributes, _ = dataset
        with open(attributes, "a") as fh:
            fh.write(attribute_line("omega", value="high") + "\n")
        with pytest.raises(ParseError, match=r"attributes\.csv:5"):
            load_dataset(series_dir, attributes, small_config())

    def test_worker_count_changes_no_record_or_exclusion(self, troubled):
        series_dir, attributes = troubled
        loads = [load_dataset(series_dir, attributes, small_config(workers=w))
                 for w in (1, 2)]
        for records, exclusions in loads:
            assert [r.catchment_id for r in records] == ["alpha"]
            assert [(e.catchment_id, e.variable, e.reason.split(":")[0])
                    for e in exclusions] == [
                ("beta", "*", "IncompleteRecord"),
                ("delta", "*", "ParseError"),
                ("gamma", "*", "IncompleteRecord"),
                ("epsilon", "precipitation", "ZeroVariance in standardize"),
            ]
        (one, one_excl), (two, two_excl) = loads
        assert one_excl == two_excl
        assert len(one) == len(two)
        for a, b in zip(one, two):
            assert (a.catchment_id, a.static) == (b.catchment_id, b.static)
            for variable in VARIABLE_KINDS:
                assert (a.features(variable).values.tobytes()
                        == b.features(variable).values.tobytes())

    @pytest.mark.parametrize("policy, code, rows, line, reason", [
        pytest.param("--drop", cli.EXIT_OK, 2, "1999-01-07,warm",
                     "could not convert string to float: 'warm'", id="--drop-0-2"),
        pytest.param("--strict", cli.EXIT_INPUT, None, "1999-01-07,warm", None,
                     id="--strict-2-None"),
        # the reason quotes the line, commas and all, yet stays one CSV field
        pytest.param("--drop", cli.EXIT_OK, 2, "1999-01-07,12.5,9",
                     "expected two fields, got '1999-01-07,12.5,9'", id="--drop-0-2-comma"),
    ])
    def test_cli_malformed_file(self, dataset, tmp_path, policy, code, rows, line, reason):
        series_dir, attributes, _ = dataset
        replace_line(series_dir / "beta_tmax.csv", 7, line)
        out = tmp_path / "out"
        assert cli.main(["extract", "--series-dir", str(series_dir), "--attributes",
                         str(attributes), "--out", str(out), "--start", "1999-01-01",
                         "--end", "2001-12-31", "--workers", "1", policy]) == code
        if rows is not None:
            features = (out / "features.csv").read_text().splitlines()
            assert len(features) == 1 + 3 * rows
            with open(out / "exclusions.csv", newline="", encoding="utf-8") as fh:
                exclusions = list(csv.reader(fh))
            assert all(len(row) == 3 for row in exclusions)
            assert exclusions[1] == ["beta", "*", f"ParseError: {series_dir / 'beta_tmax.csv'}:8: "
                                                  f"{reason}"]
