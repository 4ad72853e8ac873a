"""Command-line front end tying ingestion, extraction and analyses together.

Subcommands: extract | correlate | importance | crossval | report. Every
command is a pure function of (inputs, config): reruns with the same seed and
inputs produce byte-identical output files. ``--synthetic`` generates the
bundled 60-catchment synthetic dataset so the whole pipeline runs without
external data; it brings its own window, so ``--start``/``--end`` are refused
with it.

Each option is declared once: :class:`RunConfig` holds the CLI's own options
and carries an :class:`IngestConfig`, which carries a :class:`FeatureConfig`.
Each config checks its own values when it is built.

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
from .dataio import (
    SERIES_VARIABLES,
    VARIABLE_KINDS,
    IngestConfig,
    assemble_rows,
    read_attributes,
    series_path,
)
from .dataio import load_dataset as _load_dataset
from .decomposition import PERIODIC
from .engine import FeatureConfig, FeatureRow, read_feature_table, write_feature_table, write_table
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

#: The CLI's --workers default: one worker per core.
DEFAULT_WORKERS = max(1, os.cpu_count() or 1)


@dataclasses.dataclass
class RunConfig:
    """The options only the CLI has, plus the run's ingest options."""

    command: str
    output_dir: Path
    series_dir: Path | None = None
    attributes_file: Path | None = None
    seed: int = 42
    trees: int = 2000
    folds: int = 10
    groups: tuple[str, ...] | list[str] = GROUP_NAMES  # a list from --group
    synthetic: bool = False
    synthetic_catchments: int = 60
    synthetic_years: int = 10
    ingest: IngestConfig = dataclasses.field(
        default_factory=lambda: IngestConfig(workers=DEFAULT_WORKERS))

    @classmethod
    def from_options(cls, options: dict) -> RunConfig:
        """Split parsed options between FeatureConfig, IngestConfig and
        RunConfig by field name; an option left out keeps its default."""
        options = {"workers": DEFAULT_WORKERS, **options}
        if options.get("synthetic") and {"start", "end"} & options.keys():
            raise ConfigError("--start/--end cannot be combined with --synthetic: "
                              "the synthetic set brings its own window")

        def take(config_cls) -> dict:
            return {f.name: options.pop(f.name)
                    for f in dataclasses.fields(config_cls) if f.name in options}

        ingest = IngestConfig(**take(IngestConfig),
                              feature_config=FeatureConfig(**take(FeatureConfig)))
        return cls(**options, ingest=ingest)

    def validate(self) -> None:
        if self.trees < 1:
            raise ConfigError(f"trees must be >= 1, got {self.trees}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        bad = [g for g in self.groups if g not in GROUP_NAMES]
        if bad:
            raise ConfigError(
                f"unknown group(s) {', '.join(bad)}; choose from {', '.join(GROUP_NAMES)}"
            )
        if len(set(self.groups)) != len(self.groups):
            raise ConfigError(f"each --group may be given once, got {', '.join(self.groups)}")
        if self.synthetic_catchments < 1 or self.synthetic_years < 1:
            raise ConfigError("synthetic dataset size must be positive")
        if not self.synthetic and (self.series_dir is None or self.attributes_file is None):
            raise ConfigError("--series-dir and --attributes are required without --synthetic")

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
        # options left out stay out of the namespace: the configs hold the defaults
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
                                   n_years=cfg.synthetic_years, period=cfg.ingest.period)


def _resolve_inputs(cfg: RunConfig) -> RunConfig:
    """Input paths and the effective window; the synthetic set brings its own."""
    if not cfg.synthetic:
        return cfg
    series_dir = cfg.series_dir or cfg.output_dir / "synthetic_data"
    start, end = synthetic.window(_synthetic_spec(cfg))
    return dataclasses.replace(
        cfg, series_dir=series_dir,
        attributes_file=cfg.attributes_file or series_dir / "attributes.csv",
        ingest=dataclasses.replace(cfg.ingest, start=start, end=end),
    )


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
            path = series_path(cfg.series_dir, cid, variable)
            digest.update(f"\0{path.name}\0".encode())
            if path.exists():
                digest.update(path.read_bytes())
    ingest = dataclasses.asdict(cfg.ingest)
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


def _extract_table(cfg: RunConfig):
    """Generate the synthetic dataset when asked, else check that the inputs
    exist; then write features.csv, exclusions.csv and the fingerprint."""
    if cfg.synthetic:
        synthetic.generate(cfg.series_dir, cfg.attributes_file,
                           seed=child_seed(cfg.seed, "synthetic"),
                           spec=_synthetic_spec(cfg))
    elif not Path(cfg.attributes_file).exists():
        raise ParseError(f"attributes file not found: {cfg.attributes_file}")
    elif not Path(cfg.series_dir).is_dir():
        raise ParseError(f"series directory not found: {cfg.series_dir}")
    fingerprint = _fingerprint(cfg)
    stamp = cfg.output_dir / FINGERPRINT_FILE
    stamp.unlink(missing_ok=True)  # no stamp may outlive the table it described
    table, exclusions = _load_dataset(cfg.series_dir, cfg.attributes_file, cfg.ingest)
    # rows in (catchment id, variable) order: the ids are sorted already
    write_feature_table(cfg.output_dir / "features.csv", [
        FeatureRow(r.catchment_id, variable, r.features(variable))
        for r in table for variable in sorted(VARIABLE_KINDS)
    ])
    write_table(cfg.output_dir / "exclusions.csv", ("catchment_id", "variable", "reason"),
                ((exc.catchment_id, exc.variable, exc.reason) for exc in exclusions))
    stamp.write_text(fingerprint, encoding="utf-8")
    return table


def _obtain_table(cfg: RunConfig):
    """Reuse features.csv when its fingerprint matches the current inputs and
    options, else extract again."""
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
        table = assemble_rows(read_feature_table(cfg.output_dir / "features.csv"),
                              read_attributes(cfg.attributes_file, cfg.ingest.log_transform))
        if len(table):
            return table
        reason = "features.csv holds no complete record"
    logger.info("extracting features under %s: %s", cfg.output_dir, reason)
    return _extract_table(cfg)


def _correlate(cfg: RunConfig, table) -> None:
    write_correlations(cfg.output_dir / "correlations.csv", correlation_matrix(table))


def _importance(cfg: RunConfig, table) -> None:
    reports = importance_all(table, cfg.forest_params(), seed=cfg.seed,
                             workers=cfg.ingest.workers)
    write_importance(cfg.output_dir / "importance.csv", reports)


def _crossval(cfg: RunConfig, table) -> None:
    report = evaluate_all(table, cfg.forest_params(), seed=cfg.seed,
                          k=cfg.folds, groups=cfg.groups, workers=cfg.ingest.workers)
    write_evaluation(cfg.output_dir / "evaluation.json", report)
    write_pred_vs_obs(cfg.output_dir / "pred_vs_obs.csv", report)


def _report(cfg: RunConfig, table) -> None:
    write_summaries(cfg.output_dir / "summaries.csv", feature_summary(table))


#: name -> (help, analysis of the catchment table); extract runs no analysis.
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
    cfg = _resolve_inputs(cfg)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(cfg)
    analysis = COMMANDS[cfg.command][1]
    if analysis is None:
        _extract_table(cfg)
    else:
        analysis(cfg, _obtain_table(cfg))
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = RunConfig.from_options(vars(_parser().parse_args(argv)))
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
