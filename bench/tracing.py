"""Spans around calls into the program's public functions, recorded from outside.

While a :class:`Tracer` is installed, every module attribute of the
``flowregion`` package that refers to one of the traced functions is replaced
by a wrapper that records ``(span id, parent id, name, start, end, info)``.
Scanning every module for the function object (rather than naming import
sites) also catches names bound by ``from .x import y``.

Process-pool workers are forked while the calling span is open, so their
spans inherit it as parent. Each worker writes its spans to a spool file when
it exits; :meth:`Tracer.collect` merges them. Spans stay in memory until then.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _permuted_pairs(model) -> int:
    return sum(int(np.unique(t.feature[t.feature >= 0]).size)
               for t in model.trees if t.oob.size)


#: (module, function, span name, info extractor over (args, kwargs, result)).
TRACED = (
    ("dataio", "read_series_file", "dataio.read_series_file", lambda a, k, r: len(r)),
    ("engine", "extract_batch", "engine.extract_batch",
     lambda a, k, r: _arg(a, k, 2, "workers", 1)),
    ("engine", "extract_features", "engine.extract_features", None),
    ("engine", "write_feature_table", "engine.write_feature_table", None),
    ("engine", "read_feature_table", "engine.read_feature_table", None),
    ("series", "standardize", "series.standardize", None),
    ("dependence", "acf_feature_set", "dependence.acf_feature_set", None),
    ("dependence", "pacf_feature_set", "dependence.pacf_feature_set", None),
    ("dependence", "spectral_entropy", "dependence.spectral_entropy", None),
    ("distributional", "nonlinearity", "distributional.nonlinearity", None),
    ("distributional", "std1st_der", "distributional.other", None),
    ("distributional", "crossing_points", "distributional.other", None),
    ("distributional", "flat_spots", "distributional.other", None),
    ("distributional", "tiled_stats", "distributional.other", None),
    ("decomposition", "stl_feature_set", "decomposition.stl_feature_set", None),
    ("decomposition", "loess_smooth", "decomposition.loess_smooth",
     lambda a, k, r: _arg(a, k, 1, "span")),
    ("forest", "fit", "forest.fit",
     lambda a, k, r: (a[0].X.shape[0], a[0].X.shape[1], len(r.trees),
                      sum(t.feature.size for t in r.trees))),
    ("forest", "predict", "forest.predict",
     lambda a, k, r: (len(r), len(a[0].trees))),
    ("forest", "permutation_importance", "forest.permutation_importance",
     lambda a, k, r: (sum(1 for t in a[0].trees if t.oob.size), _permuted_pairs(a[0]))),
    ("seeding", "substream", "seeding.substream", None),
    ("regional", "spearman", "regional.spearman", None),
    ("regional", "correlation_matrix", "regional.correlation_matrix", None),
    ("regional", "predictor_matrix", "regional.predictor_matrix", None),
    ("regional", "cross_validate", "regional.cross_validate", None),
    ("regional", "evaluate_all", "regional.evaluate_all",
     lambda a, k, r: _arg(a, k, 5, "workers", 1)),
    ("regional", "importance_all", "regional.importance_all",
     lambda a, k, r: _arg(a, k, 3, "workers", 1)),
)


class Tracer:
    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.spans: list[tuple] = []
        self.stack: list = [None]
        self.ids = itertools.count()
        self._patched: list[tuple] = []
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _wrap(self, name, fn, info):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self.ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            self.spans.append((sid, parent, name, t0, t1,
                               info(args, kwargs, result) if info else None))
            return result

        return traced

    def __enter__(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "flowregion" or name.startswith("flowregion.")}
        for module_name, fn_name, span_name, info in TRACED:
            original = getattr(modules[f"flowregion.{module_name}"], fn_name)
            wrapper = self._wrap(span_name, original, info)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _after_fork(self):
        # a forked worker: keep the inherited stack (its top is the span that
        # opened the pool), drop inherited spans, and spool new ones at exit
        self.spans = []
        self.ids = itertools.count(os.getpid() << 32)
        mp_util.Finalize(self, self._spool_out, exitpriority=10)

    def _spool_out(self):
        if self.spans:
            path = self.spool / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(self.spans), encoding="utf-8")

    def collect(self) -> list[tuple]:
        """All spans, this process's and every worker's, as tuples."""
        spans = list(self.spans)
        for path in sorted(self.spool.glob("worker-*.json")):
            spans.extend(tuple(s) for s in json.loads(path.read_text(encoding="utf-8")))
        return spans


# -- per-layer metrics ---------------------------------------------------------

def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """Per-layer metrics from traced spans; 0 where the workload never calls
    the layer."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}

    def durations(name):
        return [s[4] - s[3] for s in by_name.get(name, ())]

    def has_ancestor(span, name):
        node = span[1]
        while node is not None:
            if name_of.get(node) == name:
                return True
            node = parent_of.get(node)
        return False

    def per_parent_sum(name):
        sums: dict = {}
        for s in by_name.get(name, ()):
            sums[s[1]] = sums.get(s[1], 0.0) + s[4] - s[3]
        return list(sums.values())

    children: dict = {}
    for s in spans:
        children[s[1]] = children.get(s[1], 0.0) + s[4] - s[3]

    def efficiency(name):
        # busy time of the direct children over workers x wall time
        busy = wall = 0.0
        for s in by_name.get(name, ()):
            busy += children.get(s[0], 0.0)
            wall += (s[4] - s[3]) * max(1, int(s[5] or 1))
        return busy / wall if wall else 0.0

    reads = by_name.get("dataio.read_series_file", [])
    read_time = sum(s[4] - s[3] for s in reads)
    loess = by_name.get("decomposition.loess_smooth", [])
    extract = durations("engine.extract_features")
    fits = by_name.get("forest.fit", [])
    cv_fits = [s for s in fits if has_ancestor(s, "regional.cross_validate")]

    def fit_ms_per_tree(p):
        return _median([(s[4] - s[3]) * 1e3 / s[5][2] for s in cv_fits if s[5][1] == p])

    predicts = by_name.get("forest.predict", [])
    predict_units = sum(s[5][0] * s[5][1] for s in predicts)
    perms = by_name.get("forest.permutation_importance", [])
    perm_trees = sum(s[5][0] for s in perms)
    fit_trees = sum(s[5][2] for s in fits)
    return {
        "dataio.read_series_file.ms_per_file": 1e3 * _median(durations("dataio.read_series_file")),
        "dataio.read_series_file.lines_per_s": (sum(s[5] for s in reads) / read_time
                                                if read_time else 0.0),
        "series.standardize.ms_per_series": 1e3 * _median(durations("series.standardize")),
        "dependence.acf_feature_set.ms_per_series": 1e3 * _median(durations("dependence.acf_feature_set")),
        "dependence.pacf_feature_set.ms_per_series": 1e3 * _median(durations("dependence.pacf_feature_set")),
        "dependence.spectral_entropy.ms_per_series": 1e3 * _median(durations("dependence.spectral_entropy")),
        "distributional.nonlinearity.ms_per_series": 1e3 * _median(durations("distributional.nonlinearity")),
        "distributional.other.ms_per_series": 1e3 * _median(per_parent_sum("distributional.other")),
        "decomposition.stl_feature_set.ms_per_series": 1e3 * _median(durations("decomposition.stl_feature_set")),
        "decomposition.loess_smooth.trend_ms": 1e3 * _median([s[4] - s[3] for s in loess if s[5] == 2 * 365 + 1]),
        "decomposition.loess_smooth.lowpass_ms": 1e3 * _median([s[4] - s[3] for s in loess if s[5] == 365]),
        "engine.extract_features.ms_median": 1e3 * _median(extract),
        "engine.extract_features.ms_p90": 1e3 * float(np.percentile(extract, 90)) if extract else 0.0,
        "engine.write_feature_table.ms": 1e3 * _median(durations("engine.write_feature_table")),
        "engine.read_feature_table.ms": 1e3 * _median(durations("engine.read_feature_table")),
        "engine.extract_batch.parallel_efficiency": efficiency("engine.extract_batch"),
        "forest.fit.ms_per_tree.p19": fit_ms_per_tree(19),
        "forest.fit.ms_per_tree.p47": fit_ms_per_tree(47),
        "forest.fit.ms_per_tree.p75": fit_ms_per_tree(75),
        "forest.fit.nodes_per_tree": (sum(s[5][3] for s in fits) / fit_trees
                                      if fit_trees else 0.0),
        "forest.predict.us_per_row_tree": (1e6 * sum(s[4] - s[3] for s in predicts) / predict_units
                                           if predict_units else 0.0),
        "forest.permutation_importance.ms_per_tree": (1e3 * sum(s[4] - s[3] for s in perms) / perm_trees
                                                      if perm_trees else 0.0),
        "forest.permutation_importance.permuted_predicts": sum(s[5][1] for s in perms) / rounds,
        "seeding.substream.us_per_call": 1e6 * _median(durations("seeding.substream")),
        "regional.spearman.us_per_pair": 1e6 * _median(durations("regional.spearman")),
        "regional.correlation_matrix.s": _median(durations("regional.correlation_matrix")),
        "regional.predictor_matrix.ms": 1e3 * _median(durations("regional.predictor_matrix")),
        "regional.cross_validate.s_per_pair": _median(durations("regional.cross_validate")),
        "regional.evaluate_all.parallel_efficiency": efficiency("regional.evaluate_all"),
        "regional.importance_all.parallel_efficiency": efficiency("regional.importance_all"),
    }
