"""The three batch workloads: inputs, one timed round, and output checks.

Each workload is a closed loop: one batch job runs to completion, then the
next round starts on the same inputs. ``run_round`` returns the wall time of
each stage (``pipeline`` is the whole round) and the round's outputs; every
round must reproduce the first round's outputs exactly.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import reference
from flowregion import cli, dataio, engine, forest, regional, seeding

FEATURES = engine.FEATURE_NAMES
ATTRIBUTES = dataio.STATIC_ATTRIBUTES
ANALYSIS = ("temperature", "precipitation", "streamflow")


@dataclass
class Workload:
    name: str
    ops_per_round: int
    trees_per_round: int  # trees grown in the importance and CV stages
    series_per_round: int  # series whose 28 features are extracted
    setup: Callable[[Path, int], dict]
    run_round: Callable[[dict, int], tuple[dict, dict]]
    check: Callable[[dict, dict], list[str]]


class Stages:
    """Wall time of named stages of one round."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self._start = time.perf_counter()

    @contextlib.contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        yield
        self.times[name] = self.times.get(name, 0.0) + time.perf_counter() - t0

    def done(self) -> dict[str, float]:
        self.times["pipeline"] = time.perf_counter() - self._start
        return self.times


# -- extract-34y ----------------------------------------------------------------

EXTRACT_CATCHMENTS = 8
EXTRACT_YEARS = 34
FIRST_YEAR = 1980
#: Extracted temperature peak must lie this close (circular days) to the
#: planted peak; the planted cycle is one pure harmonic under smooth noise.
PEAK_TOLERANCE_DAYS = 5


def _series_setup(n_catchments, n_years):
    def setup(inputs: Path, seed: int) -> dict:
        planted = gen.write_series_dataset(inputs, seed, n_catchments, FIRST_YEAR,
                                           n_years, ATTRIBUTES)
        first, last = gen.window_dates(FIRST_YEAR, n_years)
        return {"inputs": inputs, "planted": planted, "first": first, "last": last,
                "seed": seed}
    return setup


def _extract_round(ctx: dict, index: int) -> tuple[dict, dict]:
    config = dataio.IngestConfig(start=ctx["first"], end=ctx["last"], workers=1,
                                 policy="drop")
    out = ctx["inputs"].parent / "out"
    out.mkdir(exist_ok=True)
    timer = Stages()
    with timer.stage("ingest"):
        records, exclusions = dataio.load_dataset(ctx["inputs"],
                                                  ctx["inputs"] / "attributes.csv", config)
    rows = [engine.FeatureRow(r.catchment_id, v, r.features(v))
            for r in records for v in ANALYSIS]
    with timer.stage("write"):
        engine.write_feature_table(out / "features.csv", rows)
    stages = timer.done()
    failed = sum(3 if e.variable == "*" else 1 for e in exclusions)
    return stages, {
        "ids": [r.catchment_id for r in records],
        "features": {(r.catchment_id, v): r.features(v).as_dict()
                     for r in records for v in ANALYSIS},
        "exclusions": [f"{e.catchment_id}/{e.variable}: {e.reason}" for e in exclusions],
        "failed": failed,
    }


def _raw_series(ctx, cid):
    first, last = ctx["first"].isoformat(), ctx["last"].isoformat()
    raw = {v: reference.parse_series(ctx["inputs"] / f"{cid}_{v}.csv", first, last)
           for v in dataio.SERIES_VARIABLES}
    return {"temperature": (raw["tmin"] + raw["tmax"]) / 2.0,
            "precipitation": raw["precipitation"], "streamflow": raw["streamflow"]}


def _check_extract(ctx: dict, out: dict) -> list[str]:
    bad = [f"exclusion {e}" for e in out["exclusions"]]
    expected = sorted(ctx["planted"])
    if out["ids"] != expected:
        bad.append(f"catchments {out['ids']} != {expected}")
    for cid in out["ids"]:
        raw = _raw_series(ctx, cid)
        for variable in ANALYSIS:
            fv = out["features"][(cid, variable)]
            bad += reference.feature_mismatches(f"{cid}/{variable}", fv, raw[variable])
            for name in ("trend", "seasonal_strength"):
                if not 0.0 <= fv[name] <= 1.0:
                    bad.append(f"{cid}/{variable}: {name} = {fv[name]} outside [0, 1]")
            for name in ("peak", "trough"):
                if not 1 <= fv[name] <= gen.PERIOD:
                    bad.append(f"{cid}/{variable}: {name} = {fv[name]} outside 1..365")
        shift = abs(out["features"][(cid, "temperature")]["peak"] - ctx["planted"][cid])
        if min(shift, gen.PERIOD - shift) > PEAK_TOLERANCE_DAYS:
            bad.append(f"{cid}: temperature peak {shift} days from the planted day")
    return bad


EXTRACT_34Y = Workload(
    name="extract-34y",
    ops_per_round=3 * EXTRACT_CATCHMENTS,
    trees_per_round=0,
    series_per_round=3 * EXTRACT_CATCHMENTS,
    setup=_series_setup(EXTRACT_CATCHMENTS, EXTRACT_YEARS),
    run_round=_extract_round,
    check=_check_extract,
)


# -- regionalize-511 ------------------------------------------------------------

REGION_CATCHMENTS = 511
IMPORTANCE_TREES = 2
CV_TREES = 2
CV_FOLDS = 10
CV_TARGETS = (gen.PLANTED_TARGET, "e_acf1")
#: The planted predictor must rank at least this high for the planted target.
PLANTED_RANK_LIMIT = 3


def _region_setup(inputs: Path, seed: int) -> dict:
    gen.write_feature_dataset(inputs, seed, REGION_CATCHMENTS, FEATURES, ATTRIBUTES)
    return {"inputs": inputs, "seed": seed}


def _read_records(features: Path, attributes: Path):
    rows = engine.read_feature_table(features)
    return dataio.assemble_rows(rows, dataio.read_attributes(attributes))


def _region_round(ctx: dict, index: int) -> tuple[dict, dict]:
    seed = ctx["seed"]
    timer = Stages()
    with timer.stage("ingest"):
        records = _read_records(ctx["inputs"] / "features.csv",
                                ctx["inputs"] / "attributes.csv")
    with timer.stage("correlate"):
        matrix = regional.correlation_matrix(records)
    with timer.stage("importance"):
        reports = regional.importance_all(records, forest.ForestParams(n_trees=IMPORTANCE_TREES),
                                          seed=seed, workers=1)
    with timer.stage("crossval"):
        folds = regional.kfold_split(len(records), CV_FOLDS, seeding.child_seed(seed, "folds"))
        cv = {(t, g): regional.cross_validate(records, t, g, k=CV_FOLDS,
                                              params=forest.ForestParams(n_trees=CV_TREES),
                                              seed=seed, folds=folds)
              for t in CV_TARGETS for g in regional.GROUP_NAMES}
    stages = timer.done()
    return stages, {
        "ids": [r.catchment_id for r in records],
        "rho": matrix.rho,
        "importance": {t: (r.scores, r.ranks) for t, r in reports.items()},
        "folds": folds,
        "cv": {pair: (r.predictions, r.rmse) for pair, r in cv.items()},
        "failed": 0,
    }


def _check_region(ctx: dict, out: dict) -> list[str]:
    bad = []
    ids, vectors, static = gen.sample_feature_table(ctx["seed"], REGION_CATCHMENTS,
                                                    FEATURES, ATTRIBUTES)
    if out["ids"] != ids:
        bad.append(f"{len(out['ids'])} records, expected {REGION_CATCHMENTS}")
    # the sampled values in the predictor order S, T, P, and the targets
    preds = np.array([np.concatenate([static[c], vectors[(c, "temperature")],
                                      vectors[(c, "precipitation")]]) for c in ids])
    targets = np.array([vectors[(c, "streamflow")] for c in ids])
    for i, p in enumerate(regional.ALL_PREDICTORS):
        for j, t in enumerate(FEATURES):
            want = reference.spearman_brute(preds[:, i], targets[:, j])
            if not abs(out["rho"][i, j] - want) <= 1e-12:
                bad.append(f"spearman({p}, {t}) = {out['rho'][i, j]!r}, brute force {want!r}")
    for (t, g), (pred, rmse) in out["cv"].items():
        y = targets[:, FEATURES.index(t)]
        for fold in out["folds"]:
            train = np.setdiff1d(np.arange(y.size), fold)
            lo, hi = y[train].min(), y[train].max()
            slack = 1e-12 * max(abs(lo), abs(hi))
            if np.any(pred[fold] < lo - slack) or np.any(pred[fold] > hi + slack):
                bad.append(f"({t}, {g}): held-out prediction outside the training range")
        if not reference.close(rmse, reference.pooled_rmse(pred, y)):
            bad.append(f"({t}, {g}): RMSE {rmse!r} != recomputed {reference.pooled_rmse(pred, y)!r}")
    planted = regional.ALL_PREDICTORS.index(gen.PLANTED_PREDICTOR)
    rank = int(out["importance"][gen.PLANTED_TARGET][1][planted])
    if rank > PLANTED_RANK_LIMIT:
        bad.append(f"planted predictor ranks {rank} for {gen.PLANTED_TARGET}")
    static = out["cv"][(gen.PLANTED_TARGET, "S")][1]
    for g in regional.GROUP_NAMES:
        if "P" in g and not out["cv"][(gen.PLANTED_TARGET, g)][1] < static:
            bad.append(f"group {g} does not beat S on {gen.PLANTED_TARGET}")
    return bad


REGIONALIZE_511 = Workload(
    name="regionalize-511",
    ops_per_round=1 + 1 + len(FEATURES) + len(CV_TARGETS) * len(regional.GROUP_NAMES),
    trees_per_round=(len(FEATURES) * IMPORTANCE_TREES
                     + len(CV_TARGETS) * len(regional.GROUP_NAMES) * CV_FOLDS * CV_TREES),
    series_per_round=0,
    setup=_region_setup,
    run_round=_region_round,
    check=_check_region,
)


# -- cli-pipeline-60x10 ---------------------------------------------------------

CLI_CATCHMENTS = 60
CLI_YEARS = 10
CLI_TREES = 3
CLI_WORKERS = 2
CLI_COMMANDS = ("extract", "correlate", "importance", "crossval", "report")
CLI_CHECK_PAIR = ("seasonal_strength", "STP")


def _cli_args(ctx, out: Path) -> list[str]:
    inputs = ctx["inputs"]
    return ["--series-dir", str(inputs), "--attributes", str(inputs / "attributes.csv"),
            "--out", str(out), "--workers", str(CLI_WORKERS), "--trees", str(CLI_TREES),
            "--seed", str(ctx["seed"]), "--start", ctx["first"].isoformat(),
            "--end", ctx["last"].isoformat()]


def _cli_round(ctx: dict, index: int) -> tuple[dict, dict]:
    out = ctx["inputs"].parent / f"out-{index}"
    shutil.rmtree(out, ignore_errors=True)
    args = _cli_args(ctx, out)
    timer = Stages()
    codes = {}
    for command in CLI_COMMANDS:
        with timer.stage("ingest" if command == "extract" else command):
            codes[command] = cli.main([command, *args])
    stages = timer.done()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
             if p.is_file() and p.name != "config.json"}
    if index > 0:
        shutil.rmtree(out)
    return stages, {"dir": out, "codes": codes, "files": files,
                    "failed": sum(1 for c in codes.values() if c != 0)}


def _csv_rows(data: bytes) -> list[list[str]]:
    return [line.split(",") for line in data.decode("utf-8").splitlines()[1:]]


def _check_cli(ctx: dict, out: dict) -> list[str]:
    bad = [f"{c} exited {code}" for c, code in out["codes"].items() if code != 0]
    files = out["files"]
    expected = {"features.csv": 3 * CLI_CATCHMENTS, "exclusions.csv": 0,
                "correlations.csv": len(regional.ALL_PREDICTORS) * len(FEATURES),
                "importance.csv": len(regional.ALL_PREDICTORS) * len(FEATURES),
                "pred_vs_obs.csv": CLI_CATCHMENTS * len(FEATURES),
                "summaries.csv": len(ANALYSIS) * len(FEATURES)}
    for name, count in expected.items():
        got = len(_csv_rows(files[name])) if name in files else None
        if got != count:
            bad.append(f"{name}: {got} rows, expected {count}")
    if bad:
        return bad
    evaluation = json.loads(files["evaluation.json"])
    rmse = np.array(evaluation["rmse"])
    if rmse.shape != (len(FEATURES), len(regional.GROUP_NAMES)):
        bad.append(f"evaluation RMSE matrix is {rmse.shape}")
    for row in evaluation["ranks"]:
        if sorted(row) != list(range(1, len(regional.GROUP_NAMES) + 1)):
            bad.append(f"rank row {row} is not a permutation")
    stp = evaluation["groups"].index("STP")
    pairs = _csv_rows(files["pred_vs_obs.csv"])
    for ti, target in enumerate(evaluation["targets"]):
        obs = [float(r[2]) for r in pairs if r[0] == target]
        pred = [float(r[3]) for r in pairs if r[0] == target]
        if not reference.close(reference.pooled_rmse(pred, obs), rmse[ti, stp]):
            bad.append(f"{target}: STP RMSE in evaluation.json != pred_vs_obs.csv")

    # one (target, group) pair again on one worker must be bit-identical
    records = _read_records(out["dir"] / "features.csv", ctx["inputs"] / "attributes.csv")
    target, group = CLI_CHECK_PAIR
    folds = regional.kfold_split(len(records), CV_FOLDS, seeding.child_seed(ctx["seed"], "folds"))
    again = regional.cross_validate(records, target, group,
                                     params=forest.ForestParams(n_trees=CLI_TREES),
                                     seed=ctx["seed"], folds=folds)
    logged = np.array([float(r[3]) for r in pairs if r[0] == target])
    if not np.array_equal(again.predictions, logged):
        bad.append(f"({target}, {group}) one-worker predictions differ from the 2-worker run")
    if again.rmse != rmse[FEATURES.index(target), evaluation["groups"].index(group)]:
        bad.append(f"({target}, {group}) one-worker RMSE differs from the 2-worker run")
    return bad


CLI_PIPELINE = Workload(
    name="cli-pipeline-60x10",
    ops_per_round=len(CLI_COMMANDS),
    trees_per_round=(len(FEATURES) * CLI_TREES
                     + len(FEATURES) * len(regional.GROUP_NAMES) * CV_FOLDS * CLI_TREES),
    series_per_round=3 * CLI_CATCHMENTS,
    setup=_series_setup(CLI_CATCHMENTS, CLI_YEARS),
    run_round=_cli_round,
    check=_check_cli,
)

WORKLOADS = {w.name: w for w in (EXTRACT_34Y, REGIONALIZE_511, CLI_PIPELINE)}


def measure(workload: Workload, ctx: dict, budget: float, tracer=None):
    """Whole rounds until their times add up to at least ``budget`` seconds.

    With a ``tracer``, untraced and traced rounds alternate, so that both
    sample the same drift of the machine's speed, until each kind adds up to
    ``budget``. Returns the stage times of the untraced and of the traced
    rounds, the first round's outputs, the number of later rounds whose
    outputs differ from it, and failed operations.
    """
    rounds, traced, first, diverged, failed = [], [], None, 0, 0

    def busy(kind):
        return sum(r["pipeline"] for r in kind) < budget

    while busy(rounds) or (tracer and busy(traced)):
        trace_this = tracer is not None and len(traced) < len(rounds)
        with tracer if trace_this else contextlib.nullcontext():
            stages, out = workload.run_round(ctx, len(rounds) + len(traced))
        (traced if trace_this else rounds).append(stages)
        failed += out["failed"]
        if first is None:
            first = out
        elif not same_outputs(first, out):
            diverged += 1
    return rounds, traced, first, diverged, failed


def same_outputs(a, b) -> bool:
    """Exact equality of nested round outputs (arrays compared bitwise)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_outputs(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same_outputs(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, Path):
        return True  # each round writes into its own directory
    return a == b
