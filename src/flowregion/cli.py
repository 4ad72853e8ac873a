"""Command-line front end tying ingestion, extraction and analyses together.

Subcommands: extract | correlate | importance | crossval | report. Every
command is a pure function of (inputs, config): reruns with the same seed and
inputs produce byte-identical output files. ``--synthetic`` generates the
bundled 60-catchment synthetic dataset so the whole pipeline runs without
external data.

Exit codes: 0 success, 2 input error, 3 extraction error, 4 config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

from . import synthetic
from .dataio import SERIES_VARIABLES, IngestConfig, assemble_rows, check_window, read_attributes
from .dataio import load_dataset as _load_dataset
from .decomposition import PERIODIC
from .engine import FeatureConfig, FeatureRow, read_feature_table, write_feature_table
from .errors import (
    ConfigError,
    ExtractionFailed,
    FlowRegionError,
    IncompleteRecord,
    ParseError,
    UnknownAttribute,
)
from .forest import ForestParams
from .regional import (
    GROUP_NAMES,
    correlation_matrix,
    evaluate_all,
    feature_summary,
    importance_all,
    write_correlations,
    write_evaluation,
    write_importance,
    write_pred_vs_obs,
    write_summaries,
)
from .seeding import child_seed

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EXTRACTION = 3
EXIT_CONFIG = 4

#: Written next to features.csv; names the inputs and options it came from.
FINGERPRINT_FILE = "features.fingerprint.json"


@dataclasses.dataclass
class RunConfig:
    """Every option of a run; the parser adds no default of its own."""

    command: str
    output_dir: Path
    series_dir: Path | None = None
    attributes_file: Path | None = None
    seed: int = 42
    trees: int = 2000
    folds: int = 10
    period: int = 365
    workers: int = max(1, os.cpu_count() or 1)
    groups: tuple[str, ...] | list[str] = GROUP_NAMES  # a list from --group
    policy: str = "drop"
    synthetic: bool = False
    synthetic_catchments: int = 60
    synthetic_years: int = 10
    start: datetime.date = datetime.date(1980, 1, 1)
    end: datetime.date = datetime.date(2013, 12, 31)
    log_transform: bool = False
    seasonal_span: int | str = PERIODIC
    trend_span: int | None = None
    lowpass_span: int | None = None
    entropy_spans: tuple[int, ...] = (3, 3)

    def validate(self) -> None:
        if self.trees < 1:
            raise ConfigError(f"trees must be >= 1, got {self.trees}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.period < 2:
            raise ConfigError(f"period must be >= 2, got {self.period}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        bad = [g for g in self.groups if g not in GROUP_NAMES]
        if bad:
            raise ConfigError(
                f"unknown group(s) {', '.join(bad)}; choose from {', '.join(GROUP_NAMES)}"
            )
        if self.synthetic_catchments < 1 or self.synthetic_years < 1:
            raise ConfigError("synthetic dataset size must be positive")
        # a degree-1 Loess fit needs a span of at least 3; trend and low-pass
        # spans are rounded up to the next odd integer
        if self.seasonal_span != PERIODIC and (
                self.seasonal_span < 3 or self.seasonal_span % 2 == 0):
            raise ConfigError(f"seasonal span must be {PERIODIC!r} or an odd integer "
                              f">= 3, got {self.seasonal_span}")
        for name in ("trend_span", "lowpass_span"):
            span = getattr(self, name)
            if span is not None and span < 2:
                raise ConfigError(f"{name.replace('_', ' ')} must be >= 2, got {span}")
        if any(span < 1 for span in self.entropy_spans):
            raise ConfigError(f"entropy spans must be >= 1, got {self.entropy_spans}")
        if not self.synthetic:  # the synthetic set brings its own window
            if self.series_dir is None or self.attributes_file is None:
                raise ConfigError(
                    "--series-dir and --attributes are required without --synthetic"
                )
            check_window(self.ingest_config())

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            entropy_spans=self.entropy_spans,
            seasonal_span=self.seasonal_span,
            trend_span=self.trend_span,
            lowpass_span=self.lowpass_span,
        )

    def ingest_config(self) -> IngestConfig:
        return IngestConfig(
            start=self.start,
            end=self.end,
            period=self.period,
            log_transform=self.log_transform,
            policy=self.policy,
            workers=self.workers,
            feature_config=self.feature_config(),
        )

    def forest_params(self) -> ForestParams:
        return ForestParams(n_trees=self.trees)


def _seasonal_span(text: str) -> int | str:
    if text == PERIODIC:
        return text
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"--seasonal-span must be an integer or {PERIODIC!r}, got {text!r}"
        ) from None


def _entropy_spans(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise ConfigError(f"bad --entropy-spans {text!r}") from None


def _parser() -> argparse.ArgumentParser:
    # A ConfigError raised by a type function passes through argparse (it
    # catches only ValueError and TypeError), so it exits 4, not 2.
    parser = argparse.ArgumentParser(
        prog="flowregion",
        description="Feature-based streamflow regionalization pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        # options left out stay out of the namespace: RunConfig holds the defaults
        cmd = sub.add_parser(name, help=help_text,
                             argument_default=argparse.SUPPRESS)
        cmd.add_argument("--series-dir", type=Path)
        cmd.add_argument("--attributes", dest="attributes_file", type=Path)
        cmd.add_argument("--out", dest="output_dir", type=Path, required=True)
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--trees", type=int)
        cmd.add_argument("--folds", type=int)
        cmd.add_argument("--period", type=int)
        cmd.add_argument("--workers", type=int)
        cmd.add_argument("--group", dest="groups", action="append", choices=GROUP_NAMES,
                         help="restrict crossval to named predictor groups")
        policy = cmd.add_mutually_exclusive_group()
        policy.add_argument("--strict", dest="policy", action="store_const",
                            const="strict", help="fail the run on any bad record")
        policy.add_argument("--drop", dest="policy", action="store_const",
                            const="drop", help="drop bad records with a logged reason")
        cmd.add_argument("--synthetic", action="store_true",
                         help="generate and use the bundled synthetic dataset")
        cmd.add_argument("--synthetic-catchments", type=int)
        cmd.add_argument("--synthetic-years", type=int)
        cmd.add_argument("--start", type=datetime.date.fromisoformat)
        cmd.add_argument("--end", type=datetime.date.fromisoformat)
        cmd.add_argument("--log-transform", action="store_true",
                         help="apply base-10 log to the log_ attributes on read")
        cmd.add_argument("--seasonal-span", type=_seasonal_span)
        cmd.add_argument("--trend-span", type=int)
        cmd.add_argument("--lowpass-span", type=int)
        cmd.add_argument("--entropy-spans", type=_entropy_spans,
                         help="comma-separated Daniell spans; empty disables smoothing")
    return parser


def _synthetic_spec(cfg: RunConfig) -> synthetic.SyntheticSpec:
    return synthetic.SyntheticSpec(n_catchments=cfg.synthetic_catchments,
                                   n_years=cfg.synthetic_years, period=cfg.period)


def _resolve_inputs(cfg: RunConfig) -> RunConfig:
    """Input paths and the effective window; the synthetic set brings its own."""
    if not cfg.synthetic:
        return cfg
    series_dir = cfg.series_dir or cfg.output_dir / "synthetic_data"
    spec = _synthetic_spec(cfg)
    return dataclasses.replace(
        cfg, series_dir=series_dir,
        attributes_file=cfg.attributes_file or series_dir / "attributes.csv",
        start=datetime.date(spec.start_year, 1, 1),
        end=datetime.date(spec.start_year + spec.n_years - 1, 12, 31),
    )


def _prepare_inputs(cfg: RunConfig) -> RunConfig:
    """Resolve input paths, generating the synthetic dataset when asked."""
    cfg = _resolve_inputs(cfg)
    if cfg.synthetic:
        synthetic.generate(cfg.series_dir, cfg.attributes_file,
                           seed=child_seed(cfg.seed, "synthetic"),
                           spec=_synthetic_spec(cfg))
        return cfg
    if not Path(cfg.attributes_file).exists():
        raise ParseError(f"attributes file not found: {cfg.attributes_file}")
    if not Path(cfg.series_dir).is_dir():
        raise ParseError(f"series directory not found: {cfg.series_dir}")
    return cfg


def _echo_config(cfg: RunConfig) -> None:
    with open(cfg.output_dir / "config.json", "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _fingerprint(cfg: RunConfig) -> str:
    """What the feature table depends on, for resolved inputs: the effective
    ingest and feature config plus a sha256 of the attributes file and of
    every series file that extraction reads."""
    digest = hashlib.sha256(Path(cfg.attributes_file).read_bytes())
    for cid in sorted(read_attributes(cfg.attributes_file)):
        for variable in SERIES_VARIABLES:
            path = Path(cfg.series_dir) / f"{cid}_{variable}.csv"
            digest.update(f"\0{path.name}\0".encode())
            if path.exists():
                digest.update(path.read_bytes())
    ingest = dataclasses.asdict(cfg.ingest_config())
    del ingest["workers"]  # never changes the table
    payload = {
        "ingest": ingest,
        "synthetic": (
            {"catchments": cfg.synthetic_catchments, "years": cfg.synthetic_years,
             "seed": cfg.seed}
            if cfg.synthetic else None
        ),
        "inputs_sha256": digest.hexdigest(),
    }
    return json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"


def _extract_records(cfg: RunConfig):
    fingerprint = _fingerprint(cfg)
    stamp = cfg.output_dir / FINGERPRINT_FILE
    stamp.unlink(missing_ok=True)  # no stamp may outlive the table it described
    records, exclusions = _load_dataset(cfg.series_dir, cfg.attributes_file,
                                        cfg.ingest_config())
    rows = [
        FeatureRow(r.catchment_id, variable, r.features(variable))
        for r in records
        for variable in ("precipitation", "streamflow", "temperature")
    ]
    rows.sort(key=lambda row: (row.catchment_id, row.variable))
    write_feature_table(cfg.output_dir / "features.csv", rows)
    with open(cfg.output_dir / "exclusions.csv", "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("catchment_id,variable,reason\n")
        for exc in exclusions:
            fh.write(f"{exc.catchment_id},{exc.variable},{exc.reason}\n")
    stamp.write_text(fingerprint, encoding="utf-8")
    return records


def _obtain_records(cfg: RunConfig):
    """Reuse features.csv when its fingerprint matches the current inputs and
    options, else extract again."""
    cfg = _resolve_inputs(cfg)
    stamp = cfg.output_dir / FINGERPRINT_FILE
    if not (cfg.output_dir / "features.csv").exists():
        reason = "no features.csv"
    elif not stamp.exists():
        reason = f"no {FINGERPRINT_FILE}"
    elif not Path(cfg.attributes_file).exists():
        reason = "the attributes file is missing"
    elif stamp.read_text(encoding="utf-8") != _fingerprint(cfg):
        reason = "inputs or data-affecting options changed"
    else:
        rows = read_feature_table(cfg.output_dir / "features.csv")
        records = assemble_rows(rows, read_attributes(cfg.attributes_file,
                                                      cfg.log_transform))
        if records:
            return records
        reason = "features.csv holds no complete record"
    logger.info("extracting features under %s: %s", cfg.output_dir, reason)
    return _extract_records(_prepare_inputs(cfg))


def _correlate(cfg: RunConfig, records) -> None:
    write_correlations(cfg.output_dir / "correlations.csv",
                       correlation_matrix(records))


def _importance(cfg: RunConfig, records) -> None:
    reports = importance_all(records, cfg.forest_params(), seed=cfg.seed,
                             workers=cfg.workers)
    write_importance(cfg.output_dir / "importance.csv", reports)


def _crossval(cfg: RunConfig, records) -> None:
    report = evaluate_all(records, cfg.forest_params(), seed=cfg.seed,
                          k=cfg.folds, groups=cfg.groups, workers=cfg.workers)
    write_evaluation(cfg.output_dir / "evaluation.json", report)
    write_pred_vs_obs(cfg.output_dir / "pred_vs_obs.csv", report)


def _report(cfg: RunConfig, records) -> None:
    write_summaries(cfg.output_dir / "summaries.csv", feature_summary(records))


#: name -> (help, analysis of the records); extract runs no analysis.
COMMANDS = {
    "extract": ("extract the 28-feature table from daily series", None),
    "correlate": ("Spearman correlations of predictors vs streamflow features",
                  _correlate),
    "importance": ("random-forest permutation importance per streamflow feature",
                   _importance),
    "crossval": ("cross-validated RMSE over the seven predictor groups", _crossval),
    "report": ("distribution summaries of every feature", _report),
}


def _run(cfg: RunConfig) -> int:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(cfg)
    analysis = COMMANDS[cfg.command][1]
    if analysis is None:
        _extract_records(_prepare_inputs(cfg))
    else:
        analysis(cfg, _obtain_records(cfg))
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = RunConfig(**vars(_parser().parse_args(argv)))
        cfg.validate()
        return _run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, UnknownAttribute, IncompleteRecord, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ExtractionFailed as exc:
        print(f"extraction error: {exc}", file=sys.stderr)
        return EXIT_EXTRACTION
    except FlowRegionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXTRACTION


if __name__ == "__main__":
    sys.exit(main())
