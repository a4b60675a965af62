"""Public names the package removed stay removed, and README says so.

README's "Removed names" table lists, per module, each removed name in
backticks: a plain name is a module attribute, ``Owner.name`` a
dataclass field or method and ``function(a, b)`` parameters of a function.  The
table below must match it entry for entry, so a name that README calls
removed but the package still has (or the reverse) fails here.
"""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

REMOVED = {
    "ecgarr": [
        # the scalar fixed-point API
        "FixedPoint", "to_fixed", "from_fixed", "platanh_fixed",
        "softmax", "ntanh",
        # kept in their submodules
        "dwt_decompose", "dwt_reconstruct", "build_feature_vector", "project", "window_beat",
        "EcgRecord", "ingest_record",
    ],
    "ecgarr.fixedpoint": [
        "FixedPoint", "to_fixed", "from_fixed", "fx_add", "fx_mul", "fx_shr", "fx_dot",
        "saturate", "QFormat.resolution",
    ],
    "ecgarr.activation": [
        "platanh_fixed", "ntanh_fixed", "platanh_fixed_raw", "ntanh_fixed_raw",
        "softmax", "ntanh",
    ],
    "ecgarr.dsp": [
        "RRSeries", "extract_rr",
        "detect_r_peaks(wavelet, levels, detail_levels, threshold_ratio, window_seconds, "
        "integrate_ms, refine_ms, refractory_ms, phase_average)",
        # the one bank: db4, LEVELS deep, everything kept
        "WAVELET", "DwtCoefficients.wavelet", "DwtCoefficients.levels",
        "DwtCoefficients.detail", "dwt_decompose(wavelet, levels)",
        "dwt_reconstruct(keep_details, keep_approx)",
    ],
    "ecgarr.features": [
        "BeatWindow", "FeatureVector.pca", "FeatureVector.rr_prev", "FeatureVector.rr_next",
        "PCAModel.n_components", "PCAModel.window_length",
    ],
    "ecgarr.mlp": [
        "HIDDEN_ACTIVATIONS", "OUTPUT_ACTIVATIONS", "FIXED_ACTIVATIONS",
        "MlpModel.hidden_activation", "MlpModel.output_activation",
        "init_model(hidden_activation, output_activation)",
        "RpropState", "one_hot",
        "train(balance, plateau_epsilon, plateau_epochs, rprop_hyper)",
        "balance_classes(floor_ratio)",
        # moved to ecgarr.fixedpoint, beside check_accumulator
        "FLOAT64_EXACT_BITS",
    ],
    "ecgarr.selflearn": ["SelfLearnerState.phase", "SelfLearnerState.learn_buffer",
                         "initialize", "load_anomaly_log"],
    "ecgarr.experiment": [
        "classifier_activations", "PipelineConfig.split", "PipelineConfig.match_window_ms",
        "label_peaks(window_ms)", "PipelineConfig.output_dir",
        "annotated_beats(record)", "record_signal",
    ],
    "ecgarr.wfdb_io": ["ingest_record(annotation_path)", "SignalSpec.adc_zero",
                       "SignalSpec.baseline"],
    "ecgarr.metrics": ["match_beats(window_ms)"],
}

# the whole parameter list of each function that lost parameters
SIGNATURES = {
    ("ecgarr.dsp", "detect_r_peaks"): ["signal", "fs"],
    ("ecgarr.dsp", "dwt_decompose"): ["signal"],
    ("ecgarr.dsp", "dwt_reconstruct"): ["coeffs"],
    ("ecgarr.metrics", "match_beats"): ["predicted", "annotated", "sampling_frequency"],
    ("ecgarr.experiment", "label_peaks"): ["peaks", "ann_indices", "ann_labels", "fs"],
    ("ecgarr.experiment", "annotated_beats"): ["ann_indices", "ann_codes"],
    ("ecgarr.wfdb_io", "ingest_record"): ["header_path"],
    ("ecgarr.mlp", "init_model"): ["seed", "layer_sizes", "activation"],
    ("ecgarr.mlp", "train"): ["model", "x", "labels", "max_epochs", "seed"],
    ("ecgarr.mlp", "balance_classes"): ["x", "labels"],
    ("ecgarr.mlp", "rprop_step"): ["params", "steps", "prev_grads", "grads"],
}


def _readme_table():
    """{module: [removed entry, ...]} from README's removed-names table."""
    text = README.read_text()
    section = text.split("\n## Removed names\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for row in section.splitlines():
        cells = [c.strip() for c in row.strip().strip("|").split("|")]
        if not row.startswith("|") or len(cells) != 3 or not cells[0].startswith("`ecgarr"):
            continue
        table.setdefault(cells[0].strip("`"), []).extend(re.findall(r"`([^`]+)`", cells[1]))
    return table


def _is_present(module, entry):
    call = re.fullmatch(r"(\w+)\((.*)\)", entry)
    if call:
        params = inspect.signature(getattr(module, call[1])).parameters
        return [p for p in call[2].split(", ") if p in params]
    owner, _, name = entry.rpartition(".")
    if owner:
        owner = getattr(module, owner)
        return name in {f.name for f in dataclasses.fields(owner)} or hasattr(owner, name)
    return hasattr(module, name)


def test_removed_names_are_gone_and_listed_in_readme():
    readme = _readme_table()
    assert {m: sorted(e) for m, e in readme.items()} == \
        {m: sorted(e) for m, e in REMOVED.items()}
    present = [f"{name}: {entry}" for name, entries in REMOVED.items()
               for entry in entries if _is_present(importlib.import_module(name), entry)]
    assert not present


def test_functions_that_lost_parameters_have_exactly_these():
    for (name, function), params in SIGNATURES.items():
        signature = inspect.signature(getattr(importlib.import_module(name), function))
        assert list(signature.parameters) == params, function
