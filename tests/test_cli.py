import csv
import dataclasses
import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from flowregion import cli
from flowregion.cli import main
from flowregion.dataio import (
    VARIABLE_KINDS,
    IngestConfig,
    assemble_rows,
    load_dataset,
    read_attributes,
)
from flowregion.engine import FEATURE_NAMES, FeatureConfig, read_feature_table
from flowregion.forest import ForestParams
from flowregion.regional import correlation_matrix, evaluate_all, importance_all


def run(*args):
    return main(list(args))


N_SYNTH = 16
SMALL_SYNTH = ("--synthetic", "--synthetic-catchments", str(N_SYNTH),
               "--synthetic-years", "3", "--trees", "20", "--folds", "4",
               "--workers", "1")


@pytest.fixture(scope="module")
def extracted(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run("extract", "--out", str(out), *SMALL_SYNTH)
    assert code == 0
    return out


class TestExtract:
    @pytest.mark.parametrize("options, n_catchments", [
        ((), N_SYNTH),
        # a 7-day cycle over three 365-day years: --period sets the cycle alone
        (("--synthetic-catchments", "3", "--period", "7"), 3),
    ], ids=["default", "period-7"])
    def test_outputs_exist(self, extracted, tmp_path, options, n_catchments):
        out = extracted
        if options:
            out = tmp_path / "o"
            assert run("extract", "--out", str(out), *SMALL_SYNTH, *options) == 0
        features = (out / "features.csv").read_text().splitlines()
        assert len(features) == 1 + n_catchments * 3
        assert features[0].split(",")[:2] == ["catchment_id", "variable"]
        assert (out / "exclusions.csv").read_text() == "catchment_id,variable,reason\n"
        assert (out / "config.json").exists()

    def test_rerun_is_byte_identical(self, extracted, tmp_path):
        again = tmp_path / "again"
        assert run("extract", "--out", str(again), *SMALL_SYNTH) == 0
        assert (again / "features.csv").read_bytes() == (extracted / "features.csv").read_bytes()

    def test_missing_attributes_exits_2(self, tmp_path):
        code = run("extract", "--series-dir", str(tmp_path),
                   "--attributes", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path / "o"))
        assert code == 2

    @pytest.mark.parametrize("bad", [("--trees", "0"), ("--period", "1"),
                                     ("--workers", "0")])
    def test_bad_config_exits_4(self, tmp_path, bad):
        assert run("extract", "--out", str(tmp_path / "o"), *SMALL_SYNTH, *bad) == 4

    @pytest.mark.parametrize("window", [("--end", "1979-01-01"),
                                        ("--start", "1994-01-01"),
                                        ("--start", "1994-01-01", "--end", "1996-12-31")])
    def test_window_with_synthetic_exits_4(self, tmp_path, window, capsys):
        out = tmp_path / "o"
        assert run("extract", "--out", str(out), *SMALL_SYNTH, *window) == 4
        assert "--synthetic" in capsys.readouterr().err
        assert not out.exists()

    def test_config_records_resolved_synthetic_inputs(self, extracted):
        config = json.loads((extracted / "config.json").read_text())
        data = extracted / "synthetic_data"
        assert config["series_dir"] == str(data)
        assert config["attributes_file"] == str(data / "attributes.csv")
        assert (config["ingest"]["start"], config["ingest"]["end"]) == ("1994-01-01",
                                                                      "1996-12-31")
        fingerprint = json.loads((extracted / cli.FINGERPRINT_FILE).read_text())
        window = {key: fingerprint["ingest"][key] for key in ("start", "end")}
        assert window == {key: config["ingest"][key] for key in ("start", "end")}

    def test_missing_inputs_without_synthetic_exits_4(self, tmp_path):
        assert run("extract", "--out", str(tmp_path / "o")) == 4

    @pytest.mark.parametrize("bad", [("--seasonal-span", "wide"),
                                     ("--entropy-spans", "3,x"),
                                     ("--seasonal-span", "4"),
                                     ("--seasonal-span", "1"),
                                     ("--seasonal-span", "-7"),
                                     ("--trend-span", "-5"),
                                     ("--trend-span", "1"),
                                     ("--lowpass-span", "-3"),
                                     ("--lowpass-span", "0"),
                                     ("--entropy-spans", "0"),
                                     ("--entropy-spans", "3,-1")])
    def test_bad_span_exits_4(self, tmp_path, bad):
        assert run("extract", "--out", str(tmp_path / "o"), *SMALL_SYNTH, *bad) == 4

    @pytest.mark.parametrize("start, end", [("2000-01-02", "2000-01-01"),
                                            ("2000-02-29", "2000-02-29")])
    def test_empty_window_exits_4(self, tmp_path, start, end, capsys):
        code = run("extract", "--series-dir", str(tmp_path),
                   "--attributes", str(tmp_path / "attributes.csv"),
                   "--out", str(tmp_path / "o"), "--start", start, "--end", end)
        assert code == 4
        assert "holds no day" in capsys.readouterr().err


class TestRunConfig:
    def test_each_option_is_declared_once(self):
        names = [f.name for cls in (cli.RunConfig, IngestConfig, FeatureConfig)
                 for f in dataclasses.fields(cls)]
        assert len(names) == len(set(names))

    def test_options_reach_their_config(self):
        cfg = cli.RunConfig.from_options({
            "command": "extract", "output_dir": Path("o"), "trees": 5, "period": 300,
            "policy": "strict", "trend_span": 801, "entropy_spans": ()})
        assert cfg.trees == 5
        assert (cfg.ingest.period, cfg.ingest.policy) == (300, "strict")
        assert cfg.ingest.workers == cli.DEFAULT_WORKERS
        assert cfg.ingest.feature_config == FeatureConfig(trend_span=801, entropy_spans=())

    def test_defaults(self):
        cfg = cli.RunConfig.from_options({"command": "extract", "output_dir": Path("o")})
        assert cfg == cli.RunConfig("extract", Path("o"))
        assert cfg.ingest == IngestConfig(workers=cli.DEFAULT_WORKERS)


class TestCorrelate:
    def test_row_count_and_range(self, extracted):
        assert run("correlate", "--out", str(extracted), *SMALL_SYNTH) == 0
        lines = (extracted / "correlations.csv").read_text().splitlines()
        assert len(lines) == 1 + 75 * 28
        for line in lines[1:]:
            rho = line.rsplit(",", 1)[1]
            if rho != "undefined":
                assert -1.0 <= float(rho) <= 1.0

    def test_predictor_major_order(self, extracted):
        assert run("correlate", "--out", str(extracted), *SMALL_SYNTH) == 0
        lines = (extracted / "correlations.csv").read_text().splitlines()[1:]
        predictors = [line.split(",")[0] for line in lines]
        assert predictors[0] == "log_elev_mean"
        assert predictors[28 * 19] == "temperature_x_acf1"


class TestReport:
    def test_summary_rows(self, extracted):
        assert run("report", "--out", str(extracted), *SMALL_SYNTH) == 0
        lines = (extracted / "summaries.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 28
        for line in lines[1:]:
            parts = line.split(",")
            lo, q1, med, q3, hi = map(float, parts[2:7])
            assert lo <= q1 <= med <= q3 <= hi


class TestCrossval:
    def test_outputs(self, extracted):
        code = run("crossval", "--out", str(extracted), "--group", "S",
                   "--group", "P", "--group", "STP", *SMALL_SYNTH)
        assert code == 0
        payload = json.loads((extracted / "evaluation.json").read_text())
        assert payload["groups"] == ["S", "P", "STP"]
        assert len(payload["rmse"]) == 28
        assert all(len(row) == 3 for row in payload["rmse"])
        static = payload["groups"].index("S")
        for row in payload["relative_scores"]:
            assert row[static] == 0.0
        lines = (extracted / "pred_vs_obs.csv").read_text().splitlines()
        assert len(lines) == 1 + 28 * N_SYNTH

    def test_repeated_group_exits_4(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("crossval", "--out", str(out), "--group", "S", "--group", "S",
                   *SMALL_SYNTH) == 4
        assert "--group" in capsys.readouterr().err
        assert not (out / "evaluation.json").exists()


def test_id_that_needs_quoting_survives_every_command(tmp_path, extracted):
    data = tmp_path / "data"
    shutil.copytree(extracted / "synthetic_data", data)
    for path in data.glob("synth000_*.csv"):
        path.rename(path.with_name(path.name.replace("synth000", "synth,000")))
    attributes = data / "attributes.csv"
    attributes.write_text(attributes.read_text().replace("\nsynth000,", '\n"synth,000",'))
    inputs = ("--out", str(tmp_path / "o"), "--series-dir", str(data),
              "--attributes", str(attributes), "--start", "1994-01-01",
              "--end", "1996-12-31", "--workers", "1")
    assert run("extract", *inputs) == 0
    assert run("correlate", *inputs) == 0
    assert run("crossval", *inputs, "--group", "STP", "--trees", "2", "--folds", "4") == 0
    for name, id_column in (("features.csv", 0), ("pred_vs_obs.csv", 1)):
        with open(tmp_path / "o" / name, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert all(len(row) == len(header) for row in rows)
        assert "synth,000" in {row[id_column] for row in rows}


class TestImportance:
    def test_output_shape(self, extracted):
        assert run("importance", "--out", str(extracted), *SMALL_SYNTH) == 0
        lines = (extracted / "importance.csv").read_text().splitlines()
        assert len(lines) == 1 + 28 * 75
        first = lines[1].split(",")
        assert first[0] == FEATURE_NAMES[0]
        ranks = {int(line.split(",")[3]) for line in lines[1:76]}
        assert ranks == set(range(1, 76))


@pytest.mark.parametrize("size, count", [
    # 730-day series are too short for temperature's ACF set: no complete catchment
    (("--synthetic-catchments", "12", "--synthetic-years", "2"), 0),
    (("--synthetic-catchments", "1", "--synthetic-years", "3"), 1),
], ids=["none", "one"])
def test_importance_with_too_few_catchments_exits_3(tmp_path, capsys, size, count):
    out = tmp_path / "o"
    options = ("--out", str(out), "--synthetic", *size, "--trees", "2", "--workers", "1")
    assert run("extract", *options) == 0
    features = (out / "features.csv").read_text().splitlines()
    assert len(features) == 1 + 3 * count  # the header alone when none is complete
    capsys.readouterr()
    assert run("importance", *options) == 3
    assert f"at least two catchments, got {count}" in capsys.readouterr().err
    assert run("correlate", *options) == 3


def test_extracted_and_reread_tables_agree(tmp_path):
    """The table that load_dataset builds from the series and the one built
    from the features.csv and attributes.csv that extract wrote hold the same
    bytes, and so give the same analyses."""
    options = ("--out", str(tmp_path / "o"), "--synthetic", "--synthetic-catchments", "24",
               "--synthetic-years", "3", "--workers", "1")
    assert run("extract", *options) == 0
    cfg = cli._resolve_inputs(cli.RunConfig.from_options(vars(cli._parser().parse_args(
        ["extract", *options]))))
    extracted, _ = load_dataset(cfg.series_dir, cfg.attributes_file, cfg.ingest)
    reread = assemble_rows(read_feature_table(cfg.output_dir / "features.csv"),
                           read_attributes(cfg.attributes_file))
    assert len(extracted) == 24 and reread.ids == extracted.ids
    for name in ("static", "predictors", "ranks"):
        assert getattr(reread, name).tobytes() == getattr(extracted, name).tobytes(), name
    for variable in VARIABLE_KINDS:
        assert reread.blocks[variable].tobytes() == extracted.blocks[variable].tobytes()
    params = ForestParams(n_trees=4)
    a, b = (correlation_matrix(t).rho for t in (extracted, reread))
    assert a.tobytes() == b.tobytes()
    a, b = (importance_all(t, params, seed=3) for t in (extracted, reread))
    for target in FEATURE_NAMES:
        assert a[target].scores.tobytes() == b[target].scores.tobytes(), target
        assert a[target].ranks.tobytes() == b[target].ranks.tobytes(), target
    a, b = (evaluate_all(t, params, seed=3, k=3) for t in (extracted, reread))
    assert a.rmse.tobytes() == b.rmse.tobytes()
    for target in FEATURE_NAMES:
        assert a.predicted[target].tobytes() == b.predicted[target].tobytes(), target


class TestFeatureTableReuse:
    @pytest.fixture
    def inputs(self, extracted):
        data = extracted / "synthetic_data"
        return ("--series-dir", str(data), "--attributes", str(data / "attributes.csv"),
                "--start", "1994-01-01", "--end", "1996-12-31", "--workers", "1")

    @pytest.fixture
    def loads(self, monkeypatch):
        calls = []
        real = cli._load_dataset

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "_load_dataset", counting)
        return calls

    def test_matching_fingerprint_reuses_table(self, tmp_path, inputs, loads):
        out = tmp_path / "o"
        assert run("extract", "--out", str(out), *inputs) == 0
        assert (out / cli.FINGERPRINT_FILE).exists()
        assert run("correlate", "--out", str(out), *inputs) == 0
        assert run("report", "--out", str(out), *inputs, "--workers", "2",
                   "--seed", "7") == 0
        assert len(loads) == 1

    @pytest.mark.parametrize("changed", [("--trend-span", "801"),
                                         ("--start", "1994-03-01")])
    def test_changed_option_re_extracts(self, tmp_path, inputs, loads, caplog,
                                        changed):
        out = tmp_path / "o"
        assert run("extract", "--out", str(out), *inputs) == 0
        before = (out / "features.csv").read_bytes()
        with caplog.at_level(logging.INFO, logger="flowregion.cli"):
            assert run("correlate", "--out", str(out), *inputs, *changed) == 0
        assert len(loads) == 2
        assert "options changed" in caplog.text
        after = (out / "features.csv").read_bytes()
        assert after != before
        fresh = tmp_path / "fresh"
        assert run("extract", "--out", str(fresh), *inputs, *changed) == 0
        assert (fresh / "features.csv").read_bytes() == after
        assert run("report", "--out", str(out), *inputs, *changed) == 0
        assert len(loads) == 3  # the new stamp matches: no third extraction

    def test_changed_input_file_re_extracts(self, tmp_path, extracted, loads):
        data = tmp_path / "data"
        shutil.copytree(extracted / "synthetic_data", data)
        inputs = ("--series-dir", str(data), "--attributes", str(data / "attributes.csv"),
                  "--start", "1994-01-01", "--end", "1996-12-31", "--workers", "1")
        out = tmp_path / "o"
        assert run("extract", "--out", str(out), *inputs) == 0
        path = sorted(data.glob("*_streamflow.csv"))[0]
        lines = path.read_text().splitlines()
        day, value = lines[100].split(",")
        lines[100] = f"{day},{float(value) * 2.0 + 1.0!r}"
        path.write_text("\n".join(lines) + "\n")
        assert run("correlate", "--out", str(out), *inputs) == 0
        assert len(loads) == 2

    def test_table_without_fingerprint_is_not_trusted(self, tmp_path, inputs, loads):
        out = tmp_path / "o"
        assert run("extract", "--out", str(out), *inputs) == 0
        (out / cli.FINGERPRINT_FILE).unlink()
        assert run("correlate", "--out", str(out), *inputs) == 0
        assert len(loads) == 2
        assert (out / cli.FINGERPRINT_FILE).exists()

    def test_malformed_reused_table_exits_2(self, tmp_path, inputs, loads, capsys):
        out = tmp_path / "o"
        assert run("extract", "--out", str(out), *inputs) == 0
        assert run("correlate", "--out", str(out), *inputs) == 0
        before = (out / "correlations.csv").read_bytes()
        table = out / "features.csv"
        with open(table, "a", encoding="utf-8") as fh:
            fh.write("\n")  # a blank row is skipped
        (out / "correlations.csv").unlink()
        assert run("correlate", "--out", str(out), *inputs) == 0
        assert (out / "correlations.csv").read_bytes() == before
        lines = table.read_text().splitlines()
        cut = lines[:4] + [lines[4].rsplit(",", 1)[0]] + lines[5:]
        table.write_text("\n".join(cut) + "\n")
        capsys.readouterr()
        assert run("correlate", "--out", str(out), *inputs) == 2
        assert "features.csv:5: expected 30 fields" in capsys.readouterr().err
        table.write_text("\n".join(lines + [lines[3]]) + "\n")  # row 4 again
        cid, variable = lines[3].split(",")[:2]
        assert run("correlate", "--out", str(out), *inputs) == 2
        assert (f"features.csv:{len(lines) + 1}: duplicate row ({cid}, {variable})"
                in capsys.readouterr().err)
        assert len(loads) == 1

    @staticmethod
    def _set_cells(table: Path, line: int, cells: dict[str, str]) -> None:
        lines = table.read_text().splitlines()
        parts = lines[line - 1].split(",")
        for name, value in cells.items():
            parts[2 + FEATURE_NAMES.index(name)] = value
        lines[line - 1] = ",".join(parts)
        table.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("name, value, message", [
        ("flat_spots", "3.5", "flat_spots must be integral, got np.float64(3.5)"),
        ("entropy", "nan", "non-finite feature value(s): entropy"),
    ])
    def test_bad_reused_value_exits_2(self, tmp_path, inputs, loads, capsys, name, value,
                                      message):
        out = tmp_path / "o"
        assert run("extract", "--out", str(out), *inputs) == 0
        self._set_cells(out / "features.csv", 5, {name: value})
        capsys.readouterr()
        assert run("correlate", "--out", str(out), *inputs) == 2
        assert f"features.csv:5: {message}" in capsys.readouterr().err
        assert len(loads) == 1

    def test_first_bad_count_in_canonical_order_whatever_the_hash_seed(self, tmp_path,
                                                                        inputs):
        """Under hash seeds 0 and 1, iterating a frozenset of the counts would
        name peak or flat_spots first."""
        out = tmp_path / "o"
        assert run("extract", "--out", str(out), *inputs) == 0
        self._set_cells(out / "features.csv", 5,
                        {"peak": "1.5", "flat_spots": "2.5", "crossing_points": "0.5"})
        src = str(Path(cli.__file__).parents[1])
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-m", "flowregion.cli", "correlate", "--out", str(out),
                 *inputs], env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 2, done.stderr
            assert ("features.csv:5: crossing_points must be integral, got np.float64(0.5)"
                    in done.stderr)


COMMANDS = ("extract", "correlate", "importance", "crossval", "report")
OUTPUT_FILES = ("features.csv", "exclusions.csv", "correlations.csv",
                "importance.csv", "evaluation.json", "pred_vs_obs.csv",
                "summaries.csv", "config.json", "features.fingerprint.json")
#: sha256 over every output file of the five commands, run in order into one
#: relative --out; config.json records the worker count, so each count has one.
GOLDEN_PIPELINE_SHA256 = {
    1: "f619e9531e57c1970daf717c43fb3ae3384aa36f625c9541ead4cc44318dd5fd",
    2: "6ae350a7548e88eea6cfb1e0a384113421a4923847870a4a8b0107a2d3d2ca0d",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_pipeline_outputs_match_golden(tmp_path, monkeypatch, workers):
    monkeypatch.chdir(tmp_path)  # config.json then records no absolute path
    for command in COMMANDS:
        assert run(command, "--out", "out", "--synthetic", "--synthetic-catchments",
                   "16", "--synthetic-years", "3", "--trees", "20", "--folds", "4",
                   "--workers", str(workers)) == 0
    digest = hashlib.sha256()
    for name in OUTPUT_FILES:
        digest.update(f"\0{name}\0".encode())
        digest.update((tmp_path / "out" / name).read_bytes())
    assert digest.hexdigest() == GOLDEN_PIPELINE_SHA256[workers]
