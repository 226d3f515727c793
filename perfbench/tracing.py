"""Spans around fplcast's public functions, patched in from outside.

`Tracer.install` replaces each traced function wherever an fplcast module
binds it (its defining module and every module that imported it by name),
so calls between modules are seen too. Spans are kept in memory as
[name, start, end, parent] and the originals are restored on `restore`.
A span's name is "<layer>.<group>"; the layer is fplcast's module name.
"""

from __future__ import annotations

import csv
import gzip
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def _rows_parsed(t, args, kwargs, result):
    t.counts["ingest.rows_parsed"] += len(result)


def _windows(t, args, kwargs, result):
    t.counts["dataset.windows_built"] += len(result)
    series, w, tier = (list(args) + [None, None, None])[:3]
    series = kwargs.get("series", series)
    t.window_keys.add((series.key, kwargs.get("w", w), kwargs.get("tier", tier)))


def _trials(t, args, kwargs, result):
    t.counts["harness.trials"] += len(result)


def _trees(t, args, kwargs, result):
    t.counts["gbm.trees"] += len(result.trees)


def _predict_rows(t, args, kwargs, result):
    t.counts["gbm.predict_rows"] += len(result)


def _shapley_subsets(t, args, kwargs, result):
    t.counts["gbm.shapley_subsets"] += 1 << len(result.phi)


def _epochs(t, args, kwargs, result):
    t.counts["cnn.epochs"] += len(result[1].val_mse)


def _spearman(t, args, kwargs, result):
    t.counts["evaluation.spearman_calls"] += 1


def _bytes_read(t, args, kwargs, result):
    t.counts["serialize.bytes_read"] += len(args[0] if args else kwargs["text"])


def _bytes_written(t, args, kwargs, result):
    t.counts["serialize.bytes_written"] += len(result)


# (module, function names, span name, count hook). Hot per-row helpers
# (canonicalize_name, sliding_average, fmt_num) are left out: their time
# falls to the caller's span, which keeps the tracing overhead small.
TARGETS = [
    ("cli", ("main",), "cli.main", None),
    ("ingest", ("parse_gameweek_csv",), "ingest.parse", _rows_parsed),
    ("ingest", ("parse_strengths_csv",), "ingest.parse", None),
    ("ingest", ("fuzzy_match",), "ingest.fuzzy", None),
    ("ingest", ("compute_difficulty",), "ingest.difficulty", None),
    ("ingest", ("drop_benched",), "ingest.drop_benched", None),
    ("dataset", ("generate_synthetic_season",), "dataset.synth", None),
    ("dataset", ("build_series",), "dataset.series", None),
    ("dataset", ("build_windows",), "dataset.windows", _windows),
    ("dataset", ("assign_splits",), "dataset.split", None),
    ("dataset", ("fit_scaler", "apply_scaler"), "dataset.scaler", None),
    ("harness", ("run_grid",), "harness.grid", _trials),
    ("harness", ("train_family", "select_final", "cross_validate",
                 "top_k_summary"), "harness.train", None),
    ("harness", ("sliding_design", "windowed_batch"), "harness.design", None),
    ("ridge", ("fit_ridge",), "ridge.fit", None),
    ("ridge", ("predict_ridge", "predict_ridge_batch"), "ridge.predict", None),
    ("ridge", ("export_coefficients",), "ridge.export", None),
    ("gbm", ("fit_gbm",), "gbm.fit", _trees),
    ("gbm", ("predict_gbm",), "gbm.predict", None),
    ("gbm", ("predict_gbm_batch",), "gbm.predict", _predict_rows),
    ("gbm", ("shapley_values",), "gbm.shapley", _shapley_subsets),
    ("gbm", ("split_importance",), "gbm.importance", None),
    ("cnn", ("train",), "cnn.train", _epochs),
    ("cnn", ("forward", "forward_batch", "cost"), "cnn.forward", None),
    ("cnn", ("backward",), "cnn.backward", None),
    ("cnn", ("adam_step",), "cnn.adam", None),
    ("cnn", ("init_model", "mean_normalized_filter"), "cnn.model", None),
    ("evaluation", ("spearman_tied",), "evaluation.metrics", _spearman),
    ("evaluation", ("mse", "average_ranks", "spearman_by_gameweek",
                    "extreme_examples", "export_predictions"),
     "evaluation.metrics", None),
    ("serialize", ("read_cleaned_csv", "read_splits", "read_dataset",
                   "read_ridge", "read_gbm", "read_cnn",
                   "read_coefficient_table", "read_predictions_csv"),
     "serialize.read", _bytes_read),
    ("serialize", ("write_cleaned_csv", "write_splits", "write_dataset",
                   "write_ridge", "write_gbm", "write_cnn",
                   "write_learning_curve", "write_reports_csv",
                   "write_mse_table", "write_spearman_table",
                   "write_coefficient_table", "write_predictions_csv"),
     "serialize.write", _bytes_written),
    ("serialize", ("csv_line",), "serialize.write", None),
]

LAYERS = ("cli", "ingest", "dataset", "harness", "ridge", "gbm", "cnn",
          "evaluation", "serialize")


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fplcast" or name.startswith("fplcast."))]


def patch_everywhere(original, replacement, undo: list) -> None:
    """Rebind every fplcast module name bound to `original`."""
    for module in _program_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def restore(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)
    undo.clear()


class Tracer:
    """Records spans and counts while installed; one call stack per thread."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack = threading.local()
        self._undo: list = []
        self.window_keys: set = set()
        self.unique_windows = 0
        self.pass_ends: list[int] = []  # len(spans) after each pass

    def _wrap(self, fn, name, hook):
        spans, local = self.spans, self._stack

        def traced(*args, **kwargs):
            stack = getattr(local, "s", None)
            if stack is None:
                stack = local.s = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import fplcast.cli  # noqa: F401 - loads every traced module

        for module_name, functions, span_name, hook in TARGETS:
            module = sys.modules.get(f"fplcast.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{fn_name}")
                    continue
                patch_everywhere(original, self._wrap(original, span_name, hook),
                                 self._undo)

    def restore(self) -> None:
        restore(self._undo)

    def end_pass(self) -> None:
        """Close one pass: count its distinct (player, w, tier) window builds."""
        self.unique_windows += len(self.window_keys)
        self.window_keys.clear()
        self.pass_ends.append(len(self.spans))

    def write_first_pass(self, path: Path) -> int:
        """Write the first traced pass's spans as gzipped CSV; returns the count.

        Times are seconds from the pass's first span; parent -1 is top level.
        """
        spans = self.spans[: self.pass_ends[0]] if self.pass_ends else []
        origin = spans[0][1] if spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "parent", "name", "start_s", "end_s"])
            for i, (name, start, end, parent) in enumerate(spans):
                writer.writerow([i, parent, name, f"{start - origin:.9f}",
                                 f"{end - origin:.9f}"])
        return len(spans)


def self_times(spans) -> tuple[dict, dict, float]:
    """({span name: summed self time}, {span name: summed duration},
    summed duration of top-level spans).

    A span's self time is its duration minus its direct children's
    durations, so the self times of all spans add up to the top-level total.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own: dict = defaultdict(float)
    inclusive: dict = defaultdict(float)
    top = 0.0
    for (name, start, end, parent), children in zip(spans, child_time):
        own[name] += (end - start) - children
        inclusive[name] += end - start
        if parent < 0:
            top += end - start
    return own, inclusive, top


def layer_metrics(tracer: Tracer, n_passes: int, traced_wall: float) -> dict:
    """Per-pass per-layer metrics from `n_passes` traced passes whose wall
    times sum to `traced_wall` (all values are per-pass means)."""
    own, inclusive, top = self_times(tracer.spans)
    calls = Counter(span[0] for span in tracer.spans)
    counts = tracer.counts
    per = 1.0 / n_passes

    def s(name):
        return own.get(name, 0.0) * per

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.self_s": sum(v for k, v in own.items()
                                if k.split(".")[0] == layer) * per
         for layer in LAYERS}
    m.update({
        "ingest.parse_s": s("ingest.parse"),
        "ingest.rows_parsed": counts["ingest.rows_parsed"] * per,
        "ingest.fuzzy_s": s("ingest.fuzzy"),
        "ingest.fuzzy_calls": calls["ingest.fuzzy"] * per,
        "ingest.difficulty_s": s("ingest.difficulty"),
        "ingest.difficulty_calls": calls["ingest.difficulty"] * per,
        "dataset.synth_s": s("dataset.synth"),
        "dataset.series_s": s("dataset.series"),
        "dataset.split_s": s("dataset.split"),
        "dataset.scaler_s": s("dataset.scaler"),
        "dataset.windows_s": s("dataset.windows"),
        "dataset.windows_calls": calls["dataset.windows"] * per,
        "dataset.windows_built": counts["dataset.windows_built"] * per,
        "dataset.windows_unique_ratio": ratio(tracer.unique_windows,
                                              calls["dataset.windows"]),
        "harness.design_s": s("harness.design"),
        "harness.trials": counts["harness.trials"] * per,
        "ridge.fit_s": s("ridge.fit"),
        "ridge.predict_s": s("ridge.predict"),
        "gbm.fit_s": s("gbm.fit"),
        "gbm.fit_calls": calls["gbm.fit"] * per,
        "gbm.trees": counts["gbm.trees"] * per,
        "gbm.predict_s": s("gbm.predict"),
        "gbm.predict_rows": counts["gbm.predict_rows"] * per,
        "gbm.shapley_s": s("gbm.shapley"),
        "gbm.shapley_subsets": counts["gbm.shapley_subsets"] * per,
        "gbm.shapley_call_s": ratio(inclusive.get("gbm.shapley", 0.0),
                                    calls["gbm.shapley"]),
        "cnn.train_s": s("cnn.train"),
        "cnn.epochs": counts["cnn.epochs"] * per,
        "cnn.forward_s": s("cnn.forward"),
        "cnn.backward_s": s("cnn.backward"),
        "cnn.adam_s": s("cnn.adam"),
        "cnn.adam_calls": calls["cnn.adam"] * per,
        "cnn.step_ms": 1000.0 * ratio(inclusive.get("cnn.train", 0.0),
                                      calls["cnn.adam"]),
        "evaluation.metrics_s": s("evaluation.metrics"),
        "evaluation.spearman_calls": counts["evaluation.spearman_calls"] * per,
        "serialize.read_s": s("serialize.read"),
        "serialize.write_s": s("serialize.write"),
        "serialize.bytes_read": counts["serialize.bytes_read"] * per,
        "serialize.bytes_written": counts["serialize.bytes_written"] * per,
        "trace.wall_s": traced_wall * per,
        "trace.remainder_s": (traced_wall - top) * per,
        "trace.spans": len(tracer.spans) * per,
    })
    return m
