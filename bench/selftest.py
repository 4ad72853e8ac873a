"""Fast self-tests of the benchmark's reference computations and tracer.

Run at the start of every benchmark run, or alone with
``python3 bench/selftest.py`` (the program must be importable from ``src/``).
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

import reference
import tracing


def test_acf_fft_matches_lagged_sums():
    x = np.random.default_rng(0).normal(size=50)
    xc = x - x.mean()
    direct = np.array([xc[:-k] @ xc[k:] for k in range(1, 8)]) / (xc @ xc)
    assert np.allclose(reference.acf_fft(x, 7), direct, rtol=0, atol=1e-14)


def test_brute_ranks_average_ties():
    assert reference.brute_ranks(np.array([3.0, 1.0, 3.0, 2.0])).tolist() == [3.5, 1.0, 3.5, 2.0]


def test_spearman_brute_is_rank_based():
    x = np.array([0.1, 5.0, 2.0, 2.0, 9.0])
    assert abs(reference.spearman_brute(x, np.exp(x)) - 1.0) < 1e-15
    assert abs(reference.spearman_brute(x, -x) + 1.0) < 1e-15


def test_pooled_rmse_and_close():
    assert reference.pooled_rmse([1.0, 3.0], [0.0, 0.0]) == np.sqrt(5.0)
    assert reference.close(1.0, 1.0 + 1e-15) and not reference.close(1.0, 1.0 + 1e-9)


def test_parse_window_drops_leap_day():
    text = "date,value\n1999-12-31,9\n2000-02-28,1\n2000-02-29,2\n2000-03-01,3.5\n2001-01-01,4\n"
    assert reference.parse_series_text(text, "2000-01-01", "2000-12-31").tolist() == [1.0, 3.5]


def test_longest_run_and_counts():
    assert reference.longest_run(np.array([1, 1, 2, 2, 2, 1])) == 3
    x = np.tile([0.0, 1.0, 2.0, 3.0], 10)
    f = reference.closed_form_features(x, period=4)
    assert f["crossing_points"] == 19 and f["flat_spots"] == 1 and f["stability"] < 1e-30


def test_tracer_records_nested_spans_and_restores():
    from flowregion import regional

    original = regional.spearman
    spool = Path(__file__).resolve().parent / "work" / "selftest-spool"
    try:
        with tracing.Tracer(spool) as tracer:
            assert regional.spearman is not original
            regional.spearman([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
        assert regional.spearman is original
        spans = tracer.collect()
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    assert [s[2] for s in spans] == ["regional.spearman"] and spans[0][1] is None
    metrics = tracing.layer_metrics(spans, rounds=1)
    assert metrics["regional.spearman.us_per_pair"] > 0.0
    assert metrics["forest.fit.ms_per_tree.p75"] == 0.0


def run_all() -> None:
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()


if __name__ == "__main__":
    import run

    run._import_program()
    run_all()
    print("selftest ok")
