#!/usr/bin/env python3
"""Benchmark of the flowregion pipeline: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Sets up five times (generate the workload's inputs from ``--seed``, then
start the program in a fresh interpreter; the median is ``setup_s``), runs
whole rounds of the workload until their times add up to ``--seconds``,
checks the outputs against independent references, and prints one JSON
result line last on stdout. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced rounds with rounds
that record spans around the program's public functions, ``--seconds`` of
each, and reports the per-layer metrics.
Each run also writes ``bench/results/BENCH_<label>.json``.
The program is imported from ``src/`` of the checkout this file sits in.
"""

import os

# one BLAS thread per process, so no run uses more threads than cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The set-up is repeated this many times before the first round.
SETUP_REPEATS = 5


def _import_program():
    """Import flowregion from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "flowregion" / "__init__.py").is_file():
        raise SystemExit(f"no program source under {src}")
    sys.path.insert(0, str(src))
    import flowregion
    if Path(flowregion.__file__).resolve().parent != (src / "flowregion").resolve():
        raise SystemExit(f"flowregion imported from {flowregion.__file__}, not {src}")


def _start_program():
    """Start the program in a fresh interpreter, as every CLI command does:
    interpreter start-up, the import of every module and argument parsing."""
    subprocess.run([sys.executable, "-m", "flowregion.cli", "--help"], cwd=ROOT,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                   stdout=subprocess.DEVNULL, check=True)


def _median_stage(rounds, name):
    return statistics.median(r.get(name, 0.0) for r in rounds)


def _stage_metrics(workload, rounds):
    ingest = _median_stage(rounds, "ingest")
    forest_s = statistics.median(r.get("importance", 0.0) + r.get("crossval", 0.0)
                                 for r in rounds)
    return {
        "ingest_s": ingest,
        "series_per_s": workload.series_per_round / ingest if workload.series_per_round else 0.0,
        "correlate_s": _median_stage(rounds, "correlate"),
        "importance_s": _median_stage(rounds, "importance"),
        "crossval_s": _median_stage(rounds, "crossval"),
        "trees_per_s": workload.trees_per_round / forest_s if workload.trees_per_round else 0.0,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import numpy as np
    import selftest
    import tracing
    import workloads

    selftest.run_all()
    workload = workloads.WORKLOADS[args.workload]
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = HERE / "work" / f"{label}_{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ctx = workload.setup(work / "inputs", args.seed)
            _start_program()
            setup_times.append(time.perf_counter() - t0)
        tracer = tracing.Tracer(work / "spans") if args.trace else None
        rounds, traced_rounds, first, diverged, failed = workloads.measure(
            workload, ctx, args.seconds, tracer)
        if tracer:
            spans = tracer.collect()
        problems = workload.check(ctx, first)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if diverged:
        problems.append(f"{diverged} round(s) did not reproduce the first round's outputs")

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    pipeline = _median_stage(rounds, "pipeline")
    measured = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": pipeline,
        "peak_rss_mb": usage / 1024.0,
        **_stage_metrics(workload, rounds),
    }
    if args.trace:
        measured.update(tracing.layer_metrics(spans, len(traced_rounds)))
        measured["trace.overhead_s"] = _median_stage(traced_rounds, "pipeline") - pipeline
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
               for m in reported}
    all_rounds = rounds + traced_rounds
    result = {
        "correct": not problems,
        "attempted": len(all_rounds) * workload.ops_per_round,
        "failed": failed,
        "metrics": metrics,
    }

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = {
        "label": label,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "setup_times_s": setup_times,
        "rounds": rounds,
        "traced_rounds": traced_rounds,
        "problems": problems,
        "all_metrics": measured,
        **result,
    }
    (results / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                 encoding="utf-8")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
