"""The benchmark's tracer wraps package functions by name; they must
exist, a name the package imports only for the tracer must be one it
wraps, and the names that fire on the benchmark's runs are listed."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from ecgarr import mlp, selflearn
from ecgarr.fixedpoint import QFormat
from test_imports import unused_imports
from wfdb_fixtures import classifier_record

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _load("perfbench_tracing", TRACING).TARGETS


def test_every_trace_target_resolves():
    missing = [f"{module}.{attr}" for module, attr, _, _ in _targets()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing


def test_every_import_kept_by_noqa_is_a_trace_target():
    # once the tracer stops wrapping a name, the import it kept fails here
    targets = {(module, attr) for module, attr, _, _ in _targets()}
    kept = []
    for path in sorted((ROOT / "src" / "ecgarr").glob("*.py")):
        module = "ecgarr" if path.stem == "__init__" else f"ecgarr.{path.stem}"
        kept += [(module, name) for _, name in unused_imports(path, honour_noqa=False)]
    assert kept
    assert [entry for entry in kept if entry not in targets] == []


# Span names that fire on the classify and monitor evaluate calls, one
# predict on a Q24.12 model and one monitor call.  A change that stops a
# name firing, or starts one, changes this list.
FIRED = {
    "cli.main", "experiment.run_experiment", "experiment.render_experiment",
    "wfdb_io.parse_header", "wfdb_io.decode_format212", "dsp.detect_r_peaks",
    "metrics.confusion_from_labels", "metrics.compute_metrics", "metrics.format_report",
    "features.fit_pca", "mlp.init_model", "mlp.train", "mlp.balance_classes",
    "mlp.rprop_step", "mlp.quantize_model", "fixedpoint.quantize_raw_array",
    "mlp.predict_batch", "mlp.forward_batch", "mlp.predict", "mlp.forward",
    "selflearn.run_self_learner", "selflearn.find_stable_window", "selflearn.monitor",
}
# Targets the code no longer reaches: records are read by read_record,
# beats cut by beat_table and feature_matrix, the trainer and the
# detector call private helpers, the Q24.12 kernel's activations are
# table lookups, and neither run pairs beats with match_beats.  Making the
# tracer follow the code is ROADMAP item 1, a benchmark change of its own.
NEVER_FIRED = {
    "wfdb_io.ingest_record", "wfdb_io.label_beat", "wfdb_io.parse_annotations",
    "features.window_beat", "features.project", "features.build_feature_vector",
    "mlp.gradients", "mlp.mse", "activation.platanh", "activation.platanh_derivative",
    "dsp.dwt_decompose", "dsp.dwt_reconstruct", "activation.platanh_fixed_raw_array",
    "activation.ntanh_fixed_raw_array", "fixedpoint.rne_shift_array",
    "fixedpoint.saturate_array", "metrics.match_beats",
}


def test_trace_targets_that_fire(tmp_path, monkeypatch):
    tracing = _load("perfbench_tracing", TRACING)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    finally:
        sys.modules.pop("records", None)  # the benchmark's record writer, imported by name
    headers = [classifier_record(tmp_path, f"rec{i}", seed=i) for i in range(2)]
    monkeypatch.setattr(workloads, "write_records", lambda work_dir, variant: (headers, []))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in ("classify", "monitor"):
            workload = workloads.WORKLOADS[name]()
            workload.prepare(str(tmp_path / name), seed=0)
            assert workload.run()[2] == 0, name
        model = mlp.quantize_model(mlp.init_model(seed=0), QFormat(24, 12))
        mlp.predict(model, np.zeros(12))
        selflearn.monitor([700], selflearn.monitoring_state(300.0, 400))
    finally:
        tracer.uninstall()
    fired = {span[0] for span in tracer.spans}
    assert fired == FIRED
    assert {name for _, _, name, _ in tracing.TARGETS} - fired == NEVER_FIRED
