#!/usr/bin/env python3
"""End-to-end pipeline run on the bundled synthetic dataset.

Generates the 60-catchment synthetic dataset, extracts the feature table and
produces every analysis artifact (correlations, importance rankings,
cross-validated evaluation, pred-vs-obs pairs, distribution summaries) under
one output directory. A quick summary of the planted relationship is printed
at the end.

Usage:
    python scripts/run_synthetic_pipeline.py [--out OUT] [--trees N] [--seed N]
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from flowregion.cli import main as cli_main
from flowregion.synthetic import PLANTED_PREDICTORS, PLANTED_TARGET


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out/synthetic_run"))
    parser.add_argument("--trees", type=int, default=200)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    common = [
        "--out", str(args.out),
        "--synthetic",
        "--trees", str(args.trees),
        "--seed", str(args.seed),
        "--workers", str(args.workers),
    ]
    for command in ("extract", "correlate", "importance", "crossval", "report"):
        print(f"== flowregion {command}")
        code = cli_main([command, *common])
        if code != 0:
            print(f"command {command} failed with exit code {code}", file=sys.stderr)
            return code

    payload = json.loads((args.out / "evaluation.json").read_text())
    ti = payload["targets"].index(PLANTED_TARGET)
    print(f"\nplanted target: streamflow {PLANTED_TARGET}")
    print(f"planted predictors: {', '.join(PLANTED_PREDICTORS)}")
    for group, rmse in zip(payload["groups"], payload["rmse"][ti]):
        print(f"  RMSE[{group:>3}] = {rmse:.4f}")
    ranks = {}
    with open(args.out / "importance.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["target"] == PLANTED_TARGET and row["predictor"] in PLANTED_PREDICTORS:
                ranks[row["predictor"]] = int(row["rank"])
    print(f"importance ranks for the planted predictors: {ranks}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
