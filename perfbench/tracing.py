"""Spans and counters around the package's public functions.

The tracer replaces a function at the name its caller looks it up by,
for example ``ecgarr.experiment.window_beat`` (the experiment module
imported it by name) or ``ecgarr.activation.rne_shift_array`` (the
activation module calls it).  Each call records a span: name, start,
end, parent span and operation id.  Counters are taken from the call's
arguments and result at the same boundary.  Everything stays in memory
until ``write`` at the end of the run.

A span's self time is its duration minus the durations of its direct
children; calls are sequential in one thread, so children never
overlap.  The self times of an operation's spans sum to the duration of
its outermost spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


# (module the caller lives in, attribute, span name, counters)
# counters: name -> f(args, kwargs, result) giving the increment
TARGETS = [
    ("ecgarr.cli", "main", "cli.main", {}),
    ("ecgarr.cli", "run_experiment", "experiment.run_experiment", {}),
    ("ecgarr.cli", "render_experiment", "experiment.render_experiment", {}),
    ("ecgarr.experiment", "ingest_record", "wfdb_io.ingest_record", {
        "wfdb_io.records": lambda a, k, r: 1,
        "wfdb_io.samples": lambda a, k, r: int(r.samples.size)}),
    ("ecgarr.experiment", "label_beat", "wfdb_io.label_beat", {}),
    ("ecgarr.wfdb_io", "parse_header", "wfdb_io.parse_header", {}),
    ("ecgarr.wfdb_io", "decode_format212", "wfdb_io.decode_format212", {}),
    ("ecgarr.wfdb_io", "parse_annotations", "wfdb_io.parse_annotations", {}),
    ("ecgarr.experiment", "detect_r_peaks", "dsp.detect_r_peaks", {
        "dsp.peaks": lambda a, k, r: len(r)}),
    ("ecgarr.dsp", "dwt_decompose", "dsp.dwt_decompose", {}),
    ("ecgarr.dsp", "dwt_reconstruct", "dsp.dwt_reconstruct", {}),
    ("ecgarr.experiment", "match_beats", "metrics.match_beats", {
        "metrics.matched": lambda a, k, r: len(r.pairs),
        "metrics.unmatched_predictions": lambda a, k, r: len(r.unmatched_predictions),
        "metrics.unmatched_annotations": lambda a, k, r: len(r.unmatched_annotations)}),
    ("ecgarr.experiment", "confusion_from_labels", "metrics.confusion_from_labels", {}),
    ("ecgarr.experiment", "compute_metrics", "metrics.compute_metrics", {}),
    ("ecgarr.experiment", "format_report", "metrics.format_report", {}),
    ("ecgarr.experiment", "window_beat", "features.window_beat", {}),
    ("ecgarr.experiment", "fit_pca", "features.fit_pca", {}),
    ("ecgarr.experiment", "project", "features.project", {}),
    ("ecgarr.experiment", "build_feature_vector", "features.build_feature_vector", {}),
    ("ecgarr.experiment", "init_model", "mlp.init_model", {}),
    ("ecgarr.experiment", "train", "mlp.train", {
        "mlp.epochs": lambda a, k, r: r[1].epochs}),
    ("ecgarr.experiment", "quantize_model", "mlp.quantize_model", {}),
    ("ecgarr.experiment", "predict_batch", "mlp.predict_batch", {
        "mlp.rows_inferred": lambda a, k, r: len(a[1])}),
    ("ecgarr.mlp", "init_model", "mlp.init_model", {}),
    ("ecgarr.mlp", "balance_classes", "mlp.balance_classes", {}),
    ("ecgarr.mlp", "gradients", "mlp.gradients", {}),
    ("ecgarr.mlp", "mse", "mlp.mse", {}),
    ("ecgarr.mlp", "rprop_step", "mlp.rprop_step", {}),
    ("ecgarr.mlp", "forward", "mlp.forward", {}),
    ("ecgarr.mlp", "forward_batch", "mlp.forward_batch", {}),
    ("ecgarr.mlp", "predict", "mlp.predict", {
        "mlp.rows_inferred": lambda a, k, r: 1}),
    ("ecgarr.mlp", "platanh", "activation.platanh", {}),
    ("ecgarr.mlp", "platanh_derivative", "activation.platanh_derivative", {}),
    ("ecgarr.mlp", "platanh_fixed_raw_array", "activation.platanh_fixed_raw_array", {}),
    ("ecgarr.mlp", "ntanh_fixed_raw_array", "activation.ntanh_fixed_raw_array", {}),
    ("ecgarr.activation", "platanh_fixed_raw_array", "activation.platanh_fixed_raw_array", {}),
    ("ecgarr.mlp", "quantize_raw_array", "fixedpoint.quantize_raw_array", {}),
    ("ecgarr.mlp", "rne_shift_array", "fixedpoint.rne_shift_array", {}),
    ("ecgarr.mlp", "saturate_array", "fixedpoint.saturate_array", {}),
    ("ecgarr.activation", "rne_shift_array", "fixedpoint.rne_shift_array", {}),
    ("ecgarr.activation", "saturate_array", "fixedpoint.saturate_array", {}),
    ("ecgarr.experiment", "run_self_learner", "selflearn.run_self_learner", {
        "selflearn.events": lambda a, k, r: len(r[0])}),
    ("ecgarr.experiment", "find_stable_window", "selflearn.find_stable_window", {}),
    ("ecgarr.selflearn", "find_stable_window", "selflearn.find_stable_window", {}),
    ("ecgarr.selflearn", "monitor", "selflearn.monitor", {
        "selflearn.events": lambda a, k, r: len(r[0]),
        "selflearn.peaks_judged": lambda a, k, r: len(a[0])}),
]

# counted only at the outermost call of their layer: the events a nested
# monitor call returns are also returned by the run that called it
OUTER_ONLY = {"selflearn.events"}

LAYERS = ("wfdb_io", "dsp", "features", "mlp", "activation", "fixedpoint",
          "selflearn", "metrics", "experiment", "cli")


class Tracer:
    """Records spans and counters while installed; ``op`` tags each span."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self.counters = defaultdict(float)  # (op, counter) -> total
        self.op = None
        self._stack = []
        self._originals = []

    def _wrap(self, func, name, counters):
        spans, stack, totals = self.spans, self._stack, self.counters
        clock = time.perf_counter
        layer = name.split(".", 1)[0] + "."

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.op]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            nested = span[3] is not None and spans[span[3]][0].startswith(layer)
            for counter, fn in counters.items():
                if not (nested and counter in OUTER_ONLY):
                    totals[(self.op, counter)] += fn(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module_name, attr, name, counters in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counters))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path, extra):
        """Spans as [name index, start us, end us, parent index, op]."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"span_names": names,
                       "spans": [[index[n], round((a - origin) * 1e6, 1),
                                  round((b - origin) * 1e6, 1), parent, op]
                                 for n, a, b, parent, op in self.spans],
                       "counters": [[op, name, value] for (op, name), value
                                    in sorted(self.counters.items(), key=str)],
                       **extra}, fh, separators=(",", ":"))
            fh.write("\n")


class SpanStats:
    """Totals per span name over the operations traced."""

    def __init__(self, tracer: Tracer, ops: int):
        self.ops = ops
        self.total = defaultdict(float)     # every span's duration
        self.outer = defaultdict(float)     # spans whose parent is in another layer
        self.calls = defaultdict(int)
        self.self_by_layer = defaultdict(float)
        spans = tracer.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            self.total[name] += dur
            self.calls[name] += 1
            if parent is None or not spans[parent][0].startswith(layer + "."):
                self.outer[name] += dur
            own = dur - child_time[i]
            self.self_by_layer[layer] += own
        self.counter = defaultdict(float)
        for (_, name), value in tracer.counters.items():
            self.counter[name] += value

    def per_op(self, value):
        return value / self.ops

    def self_total(self):
        return sum(self.self_by_layer.values())


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(stats: SpanStats, overhead_ratio: float, traced_wall_s: float):
    """Every per-layer metric, by the name BENCHMARK.json gives it."""
    s = stats
    op = s.per_op
    rows = s.counter["mlp.rows_inferred"]
    records = s.counter["wfdb_io.records"]
    epochs = s.counter["mlp.epochs"]
    fixed_act = ("activation.platanh_fixed_raw_array", "activation.ntanh_fixed_raw_array")
    out = {f"{layer}.self_s": op(s.self_by_layer[layer]) for layer in LAYERS}
    out.update({
        "dsp.detect_s": op(s.total["dsp.detect_r_peaks"]),
        "dsp.detect_calls": op(s.calls["dsp.detect_r_peaks"]),
        "dsp.peaks": op(s.counter["dsp.peaks"]),
        "metrics.match_s": op(s.total["metrics.match_beats"]),
        "metrics.matched": op(s.counter["metrics.matched"]),
        "metrics.unmatched_predictions": op(s.counter["metrics.unmatched_predictions"]),
        "metrics.unmatched_annotations": op(s.counter["metrics.unmatched_annotations"]),
        "features.window_s": op(s.total["features.window_beat"]),
        "features.window_calls": op(s.calls["features.window_beat"]),
        "features.windows_used_ratio": _ratio(s.calls["features.project"],
                                              s.calls["features.window_beat"]),
        "features.fit_pca_s": op(s.total["features.fit_pca"]),
        "features.project_s": op(s.total["features.project"]),
        "features.project_calls": op(s.calls["features.project"]),
        "features.build_vector_s": op(s.total["features.build_feature_vector"]),
        "mlp.train_s": op(s.total["mlp.train"]),
        "mlp.epochs": op(epochs),
        "mlp.epoch_ms": 1e3 * _ratio(s.total["mlp.train"], epochs),
        "mlp.gradients_s": op(s.total["mlp.gradients"]),
        "mlp.mse_s": op(s.total["mlp.mse"]),
        "mlp.rprop_s": op(s.total["mlp.rprop_step"]),
        "mlp.predict_batch_s": op(s.total["mlp.predict_batch"]),
        "mlp.predict_us": 1e6 * _ratio(s.total["mlp.predict"], s.calls["mlp.predict"]),
        "activation.pla_s": op(s.outer["activation.platanh"]
                               + s.outer["activation.platanh_derivative"]),
        "activation.fixed_s": op(sum(s.outer[n] for n in fixed_act)),
        "activation.fixed_calls_per_beat": _ratio(sum(s.calls[n] for n in fixed_act), rows),
        "fixedpoint.quantize_calls_per_beat": _ratio(s.calls["fixedpoint.quantize_raw_array"], rows),
        "fixedpoint.rne_shift_calls_per_beat": _ratio(s.calls["fixedpoint.rne_shift_array"], rows),
        "selflearn.run_s": op(s.total["selflearn.run_self_learner"]),
        "selflearn.find_stable_calls": _ratio(s.calls["selflearn.find_stable_window"], records),
        "selflearn.events": op(s.counter["selflearn.events"]),
        "selflearn.step_us": 1e6 * _ratio(s.total["selflearn.monitor"],
                                          s.counter["selflearn.peaks_judged"]),
        "wfdb_io.ingest_s": op(s.total["wfdb_io.ingest_record"]),
        "wfdb_io.samples": op(s.counter["wfdb_io.samples"]),
        "trace.overhead_ratio": overhead_ratio,
        "trace.accounted_ratio": _ratio(s.self_total(), traced_wall_s),
    })
    return out
