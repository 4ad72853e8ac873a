import datetime
import hashlib

import numpy as np
import pytest

from flowregion.dataio import IngestConfig, load_dataset
from flowregion.seeding import substream
from flowregion.synthetic import (
    PLANTED_PREDICTORS,
    PLANTED_TARGET,
    SyntheticSpec,
    catchment_series,
    generate,
    window,
)


SMALL = SyntheticSpec(n_catchments=4, start_year=1999, n_years=3)


def test_file_layout(tmp_path):
    ids = generate(tmp_path / "series", tmp_path / "attributes.csv", seed=1,
                   spec=SMALL)
    assert ids == [f"synth{i:03d}" for i in range(4)]
    files = sorted(p.name for p in (tmp_path / "series").iterdir())
    assert len(files) == 16  # 4 catchments x 4 variables
    assert "synth000_tmin.csv" in files


def test_generation_is_deterministic(tmp_path):
    generate(tmp_path / "a", tmp_path / "a_attrs.csv", seed=9, spec=SMALL)
    generate(tmp_path / "b", tmp_path / "b_attrs.csv", seed=9, spec=SMALL)
    assert (tmp_path / "a_attrs.csv").read_bytes() == (tmp_path / "b_attrs.csv").read_bytes()
    for name in ("synth000_streamflow.csv", "synth003_precipitation.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_changes_data(tmp_path):
    generate(tmp_path / "a", tmp_path / "a_attrs.csv", seed=1, spec=SMALL)
    generate(tmp_path / "b", tmp_path / "b_attrs.csv", seed=2, spec=SMALL)
    assert (tmp_path / "a_attrs.csv").read_bytes() != (tmp_path / "b_attrs.csv").read_bytes()


def test_dataset_ingests_cleanly(tmp_path):
    generate(tmp_path / "series", tmp_path / "attributes.csv", seed=3, spec=SMALL)
    cfg = IngestConfig(start=np.datetime64("1999-01-01").astype("O"),
                       end=np.datetime64("2001-12-31").astype("O"))
    records, exclusions = load_dataset(tmp_path / "series",
                                       tmp_path / "attributes.csv", cfg)
    assert len(records) == 4
    assert not exclusions


def test_planted_constants_name_real_features():
    from flowregion.engine import FEATURE_NAMES
    from flowregion.regional import ALL_PREDICTORS

    assert PLANTED_TARGET in FEATURE_NAMES
    for predictor in PLANTED_PREDICTORS:
        assert predictor in ALL_PREDICTORS


#: sha256 over the attributes file and every tmin, tmax and precipitation file
#: of a 3-catchment, 1999-2001 dataset at seed 5 (name, NUL, bytes per file),
#: pinned from the per-line writer that formatted each date with isoformat().
#: Streamflow is left out: its seasonal amplitude is set from a measured
#: x_acf10, so its last bits follow the ACF kernel, not the writer.
GOLDEN_SYNTHETIC_SHA256 = "d5a00c110fc6232c908e257844b0b2011536aae00df96e0ab2e6d16fb6bdd9a6"


def _digest(series_dir, attributes_file, variables):
    digest = hashlib.sha256()
    paths = [attributes_file] + sorted(p for p in series_dir.iterdir()
                                       if p.stem.split("_", 1)[1] in variables)
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_written_files_match_golden(tmp_path):
    spec = SyntheticSpec(n_catchments=3, start_year=1999, n_years=3)
    generate(tmp_path / "series", tmp_path / "attributes.csv", seed=5, spec=spec)
    assert _digest(tmp_path / "series", tmp_path / "attributes.csv",
                   ("tmin", "tmax", "precipitation")) == GOLDEN_SYNTHETIC_SHA256


def calendar_oracle(first_year, n_years):
    """Every calendar day of the years plus its no-leap grid index, from a
    day-by-day loop: Feb 29 repeats the Feb 28 index."""
    day = datetime.date(first_year, 1, 1)
    days, grid, cursor = [], [], -1
    while day.year < first_year + n_years:
        if (day.month, day.day) != (2, 29):
            cursor += 1
        days.append(day)
        grid.append(cursor)
        day += datetime.timedelta(days=1)
    return days, np.asarray(grid)


@pytest.mark.parametrize("period", [365, 7])
def test_series_files_are_formatted_day_by_day(tmp_path, period):
    spec = SyntheticSpec(n_catchments=2, start_year=1999, n_years=3, period=period)
    generate(tmp_path / "series", tmp_path / "attributes.csv", seed=5, spec=spec)
    days, grid = calendar_oracle(1999, 3)
    assert window(spec) == (days[0], days[-1])
    for i in range(spec.n_catchments):
        series = catchment_series(substream(5, "catchment", i), 3 * 365, period)
        for variable, values in series.items():
            expected = "date,value\n" + "".join(
                f"{day.isoformat()},{float(v)!r}\n" for day, v in zip(days, values[grid]))
            path = tmp_path / "series" / f"synth{i:03d}_{variable}.csv"
            assert path.read_text(encoding="utf-8") == expected
