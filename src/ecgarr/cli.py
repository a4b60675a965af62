"""Command-line front end.

Stages are separate subcommands wired by their file artifacts: ingest
dumps a record, detect writes a peak list, features turns record+peaks
into a PCA model and a feature table, train fits the classifier on a
feature table, infer applies a saved model, selflearn runs the rhythm
monitor, and evaluate / sweep-fraction-bits orchestrate whole
experiments.  Every command writes a manifest.json describing the
effective options plus content hashes of what it read and wrote, so a
run can be reproduced exactly.  A config file (INI, one section per
command) supplies defaults; command-line flags win.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from .activation import platanh, tanh_exact
from .dsp import PeakTrain, detect_r_peaks
from .experiment import (
    PipelineConfig,
    annotated_beats,
    label_peaks,
    render_experiment,
    render_sweep,
    run_experiment,
    sweep_fraction_bits,
)
from .features import (
    PCA_COMPONENTS,
    WINDOW_HALF_WIDTH,
    BeatFeatureRow,
    beat_table,
    feature_matrix,
    fit_pca,
    load_features,
    save_features,
    save_pca_model,
)
from .fixedpoint import QFormat
from .mlp import init_model, load_model, predict_batch, quantize_model, save_model, train
from .selflearn import run_self_learner, save_anomaly_log
from .wfdb_io import ingest_record

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags or malformed config; exits with the usage code."""


# PipelineConfig's field defaults, which the experiment commands share
_PIPELINE = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}

# effective-option defaults per command; None means "must be provided"
DEFAULTS = {
    "ingest": {"record": None, "channel": 0, "out_dir": None},
    "detect": {"record": None, "channel": 0, "out_dir": None},
    "features": {
        "records": [], "channel": 0, "peaks": None, "out_dir": None,
        "peaks_from_annotations": False, "window": 2 * WINDOW_HALF_WIDTH + 1,
    },
    "train": {
        "features": None, "seed": None, "hidden": _PIPELINE["hidden_units"],
        "max_epochs": _PIPELINE["max_epochs"], "activation": "pla", "out_dir": None,
    },
    "infer": {
        "features": None, "model": None, "total_bits": None,
        "fraction_bits": None, "out_dir": None,
    },
    "selflearn": {
        "record": None, "channel": 0, "peaks": None, "peaks_from_annotations": False,
        "tolerance": _PIPELINE["tolerance_fraction"], "out_dir": None,
    },
    "evaluate": {
        "records": [], "channel": 0, "classifier": "pla", "detector": "ann", "seed": None,
        "max_epochs": _PIPELINE["max_epochs"], "hidden": _PIPELINE["hidden_units"],
        "total_bits": _PIPELINE["total_bits"], "fraction_bits": _PIPELINE["fraction_bits"],
        "tolerance": _PIPELINE["tolerance_fraction"], "out_dir": None,
    },
    "sweep-fraction-bits": {
        "records": [], "channel": 0, "detector": "ann", "seed": None, "out_dir": None,
        "max_epochs": _PIPELINE["max_epochs"], "hidden": _PIPELINE["hidden_units"],
        "total_bits": _PIPELINE["total_bits"], "fraction_bits_min": 6, "fraction_bits_max": 14,
    },
    "activation-error": {"grid_step": 1e-4, "out_dir": None},
}

_BOOL_KEYS = {"peaks_from_annotations"}
_INT_KEYS = {
    "channel", "window", "seed", "hidden", "max_epochs",
    "total_bits", "fraction_bits", "fraction_bits_min", "fraction_bits_max",
}
_FLOAT_KEYS = {"tolerance", "grid_step"}
_LIST_KEYS = {"records"}


def _convert_config_value(key: str, raw: str):
    try:
        if key in _BOOL_KEYS:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _LIST_KEYS:
            return raw.split()
    except ValueError:
        raise UsageError(f"config value {key} = {raw!r} is malformed") from None
    return raw


def _load_config_section(path: str, command: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise UsageError(f"malformed config {path}: {exc}") from None
    if command not in parser:
        return {}
    known = DEFAULTS[command]
    out = {}
    for key, raw in parser[command].items():
        key = key.replace("-", "_")
        if key not in known:
            raise UsageError(f"config key {key!r} is not a {command} option")
        out[key] = _convert_config_value(key, raw)
    return out


def _effective_options(args: argparse.Namespace, command: str) -> dict:
    """Layer CLI flags over config-file values over built-in defaults."""
    file_values = {}
    if args.config is not None:
        file_values = _load_config_section(args.config, command)
    out = {}
    for key, default in DEFAULTS[command].items():
        cli_value = getattr(args, key, None)
        if key in _LIST_KEYS and cli_value == []:
            cli_value = None  # append-action default, not an explicit choice
        if cli_value is not None:
            out[key] = cli_value
        elif key in file_values:
            out[key] = file_values[key]
        else:
            out[key] = default
    return out


def _require(opts: dict, command: str, *keys: str) -> None:
    for key in keys:
        value = opts[key]
        if value is None or (key in _LIST_KEYS and not value):
            flag = "--" + key.replace("_", "-").rstrip("s" if key in _LIST_KEYS else "")
            raise UsageError(f"{command} needs {flag} (flag or config)")


# ---------------------------------------------------------------------------
# manifests


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _record_companions(header_path: str) -> list[str]:
    stem = os.path.splitext(header_path)[0]
    found = [header_path]
    for ext in (".dat", ".atr"):
        if os.path.exists(stem + ext):
            found.append(stem + ext)
    return found


def _write_manifest(out_dir: str, command: str, opts: dict,
                    input_paths, output_paths) -> str:
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(opts.items()) if k != "out_dir"},
        "inputs": {p: _sha256(p) for p in sorted(set(input_paths))},
        "outputs": {os.path.basename(p): _sha256(p)
                    for p in sorted(set(output_paths))},
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _ensure_out_dir(opts: dict) -> str:
    out_dir = opts["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


# ---------------------------------------------------------------------------
# shared record plumbing


def _beat_positions(record, signal, opts) -> np.ndarray:
    """Peak train from a detect artifact, the annotations, or the detector."""
    if opts.get("peaks") and opts.get("peaks_from_annotations"):
        raise UsageError("--peaks and --peaks-from-annotations are exclusive")
    if opts.get("peaks"):
        idx = np.loadtxt(opts["peaks"], dtype=np.int64, ndmin=1)
        return PeakTrain(idx, record.header.sampling_frequency).r_indices
    if opts.get("peaks_from_annotations"):
        return annotated_beats(record)[0]
    peaks = detect_r_peaks(signal, record.header.sampling_frequency)
    return peaks.r_indices


def _load_signal(record, channel: int) -> np.ndarray:
    if channel >= record.header.n_signals:
        raise ValueError(
            f"channel {channel} out of range ({record.header.n_signals} signals)")
    return record.samples[channel].astype(np.float64)


def _qformat(total_bits: int, fraction_bits: int,
             fraction_flag: str = "--fraction-bits") -> QFormat:
    try:
        return QFormat(total_bits, fraction_bits)
    except ValueError as exc:
        raise UsageError(
            f"--total-bits {total_bits} {fraction_flag} {fraction_bits}: {exc}") from None


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(opts) -> int:
    _require(opts, "ingest", "record", "out_dir")
    record = ingest_record(opts["record"])
    signal = _load_signal(record, opts["channel"])
    out_dir = _ensure_out_dir(opts)
    name = record.header.record_name
    signal_path = os.path.join(out_dir, f"{name}-signal.txt")
    with open(signal_path, "w") as fh:
        for v in record.samples[opts["channel"]]:
            fh.write(f"{int(v)}\n")
    ann_path = os.path.join(out_dir, f"{name}-annotations.txt")
    with open(ann_path, "w") as fh:
        fh.write("sample_index,symbol\n")
        for a in record.annotations:
            fh.write(f"{a.sample_index},{a.symbol}\n")
    _write_manifest(out_dir, "ingest", opts,
                    _record_companions(opts["record"]), [signal_path, ann_path])
    print(f"{name}: {signal.size} samples, {len(record.annotations)} annotations")
    return 0


def cmd_detect(opts) -> int:
    _require(opts, "detect", "record", "out_dir")
    record = ingest_record(opts["record"])
    signal = _load_signal(record, opts["channel"])
    peaks = detect_r_peaks(signal, record.header.sampling_frequency)
    out_dir = _ensure_out_dir(opts)
    name = record.header.record_name
    peaks_path = os.path.join(out_dir, f"{name}-peaks.txt")
    with open(peaks_path, "w") as fh:
        for r in peaks.r_indices:
            fh.write(f"{int(r)}\n")
    _write_manifest(out_dir, "detect", opts,
                    _record_companions(opts["record"]), [peaks_path])
    print(f"{name}: {peaks.r_indices.size} peaks")
    return 0


def cmd_features(opts) -> int:
    _require(opts, "features", "records", "out_dir")
    # PCA needs at least one sample per component in a window
    if opts["window"] < PCA_COMPONENTS or opts["window"] % 2 == 0:
        raise UsageError(f"--window must be an odd sample count >= {PCA_COMPONENTS}, "
                         "the PCA component count")
    half_width = (opts["window"] - 1) // 2

    per_record = []
    inputs = []
    for header in opts["records"]:
        record = ingest_record(header)
        signal = _load_signal(record, opts["channel"])
        fs = record.header.sampling_frequency
        peaks = _beat_positions(record, signal, opts)
        labels = label_peaks(peaks, *annotated_beats(record), fs,
                             _PIPELINE["match_window_ms"])
        per_record.append((record.header.record_name,
                           beat_table(signal, fs, peaks, labels, half_width)))
        inputs.extend(_record_companions(header))
        if opts.get("peaks"):
            inputs.append(opts["peaks"])
    if not sum(len(beats) for _, beats in per_record):
        raise ValueError("no usable labeled beats in the given records")

    pca = fit_pca(np.vstack([beats.windows for _, beats in per_record]))
    table = [
        BeatFeatureRow(record_id=name, r_index=r, features=features, label=str(label))
        for name, beats in per_record
        for r, features, label in zip(beats.r_index.tolist(), feature_matrix(pca, beats),
                                      beats.labels.tolist())
    ]

    out_dir = _ensure_out_dir(opts)
    pca_path = os.path.join(out_dir, "pca.txt")
    features_path = os.path.join(out_dir, "features.txt")
    save_pca_model(pca_path, pca)
    save_features(features_path, table)
    _write_manifest(out_dir, "features", opts, inputs, [pca_path, features_path])
    print(f"{len(table)} beats from {len(per_record)} record(s)")
    return 0


def cmd_train(opts) -> int:
    _require(opts, "train", "features", "seed", "out_dir")
    if opts["activation"] not in ("pla", "exact"):
        raise UsageError("--activation must be pla or exact")
    rows = load_features(opts["features"])
    x = np.stack([r.features for r in rows])
    y = np.array([int(r.label) for r in rows])
    hidden, output = (("platanh", "ntanh_pla") if opts["activation"] == "pla"
                      else ("tanh", "ntanh"))
    arch = init_model(seed=opts["seed"], layer_sizes=(12, opts["hidden"], 2),
                      hidden_activation=hidden, output_activation=output)
    model, report = train(arch, x, y, max_epochs=opts["max_epochs"],
                          seed=opts["seed"])

    out_dir = _ensure_out_dir(opts)
    model_path = os.path.join(out_dir, "model.txt")
    history_path = os.path.join(out_dir, "history.txt")
    save_model(model_path, model)
    with open(history_path, "w") as fh:
        for v in report.mse_history:
            fh.write(format(v, ".17g") + "\n")
    _write_manifest(out_dir, "train", opts, [opts["features"]],
                    [model_path, history_path])
    print(f"{report.epochs} epochs, stop: {report.stop_reason}, "
          f"final mse {report.mse_history[-1]:.8f}")
    return 0


def cmd_infer(opts) -> int:
    _require(opts, "infer", "features", "model", "out_dir")
    fmt = None
    if opts["total_bits"] is not None or opts["fraction_bits"] is not None:
        fmt = _qformat(
            _PIPELINE["total_bits"] if opts["total_bits"] is None else opts["total_bits"],
            _PIPELINE["fraction_bits"] if opts["fraction_bits"] is None
            else opts["fraction_bits"])
    rows = load_features(opts["features"])
    model = load_model(opts["model"])
    if fmt is not None:
        model = quantize_model(model, fmt)
    x = np.stack([r.features for r in rows])
    pred = predict_batch(model, x)

    out_dir = _ensure_out_dir(opts)
    verdicts_path = os.path.join(out_dir, "verdicts.txt")
    with open(verdicts_path, "w") as fh:
        fh.write("record,r_index,label,prediction\n")
        for row, p in zip(rows, pred):
            fh.write(f"{row.record_id},{row.r_index},{row.label},{int(p)}\n")
    _write_manifest(out_dir, "infer", opts,
                    [opts["features"], opts["model"]], [verdicts_path])
    flagged = int(np.sum(pred == 1))
    print(f"{len(rows)} beats, {flagged} flagged")
    return 0


def cmd_selflearn(opts) -> int:
    _require(opts, "selflearn", "record", "out_dir")
    record = ingest_record(opts["record"])
    signal = _load_signal(record, opts["channel"])
    peaks = _beat_positions(record, signal, opts)
    events, state = run_self_learner(peaks, tolerance_fraction=opts["tolerance"])

    out_dir = _ensure_out_dir(opts)
    log_path = os.path.join(out_dir, "anomalies.csv")
    save_anomaly_log(log_path, record.header.record_name, events)
    inputs = _record_companions(opts["record"])
    if opts.get("peaks"):
        inputs.append(opts["peaks"])
    _write_manifest(out_dir, "selflearn", opts, inputs, [log_path])
    print(f"{record.header.record_name}: {len(events)} anomalies, "
          f"stable interval {state.st_rr:g} samples")
    return 0


# option name -> PipelineConfig field
_CONFIG_FIELDS = {
    "channel": "channel", "total_bits": "total_bits", "fraction_bits": "fraction_bits",
    "tolerance": "tolerance_fraction", "max_epochs": "max_epochs", "hidden": "hidden_units",
}


def _pipeline_config(opts, classifier: str, detector: str) -> PipelineConfig:
    return PipelineConfig(
        record_paths=tuple(opts["records"]),
        detector=detector,
        classifier=classifier,
        seed=opts["seed"] if opts["seed"] is not None else 0,
        **{field: opts[key] for key, field in _CONFIG_FIELDS.items() if key in opts},
    )


def cmd_evaluate(opts) -> int:
    _require(opts, "evaluate", "records", "out_dir")
    if opts["classifier"] != "self-learner":
        _require(opts, "evaluate", "seed")
    _qformat(opts["total_bits"], opts["fraction_bits"])
    result = run_experiment(_pipeline_config(opts, opts["classifier"],
                                             opts["detector"]))
    text = render_experiment(result)

    out_dir = _ensure_out_dir(opts)
    report_path = os.path.join(out_dir, "report.txt")
    with open(report_path, "w") as fh:
        fh.write(text)
    inputs = [p for h in opts["records"] for p in _record_companions(h)]
    _write_manifest(out_dir, "evaluate", opts, inputs, [report_path])
    print(text, end="")
    return 0


def cmd_sweep(opts) -> int:
    _require(opts, "sweep-fraction-bits", "records", "seed", "out_dir")
    lo, hi = opts["fraction_bits_min"], opts["fraction_bits_max"]
    _qformat(opts["total_bits"], hi, "--fraction-bits-max")
    if not 0 < lo <= hi < opts["total_bits"]:
        raise UsageError("need 0 < fraction-bits-min <= fraction-bits-max < total-bits")
    config = _pipeline_config(opts, "pla", opts["detector"])
    points = sweep_fraction_bits(config, tuple(range(lo, hi + 1)))
    text = render_sweep(points)

    out_dir = _ensure_out_dir(opts)
    sweep_path = os.path.join(out_dir, "sweep.txt")
    with open(sweep_path, "w") as fh:
        fh.write(text)
    inputs = [p for h in opts["records"] for p in _record_companions(h)]
    _write_manifest(out_dir, "sweep-fraction-bits", opts, inputs, [sweep_path])
    print(text, end="")
    return 0


def cmd_activation_error(opts) -> int:
    step = opts["grid_step"]
    if not 0 < step <= 1:
        raise UsageError("--grid-step must be in (0, 1]")
    n = int(round(12.0 / step)) + 1
    grid = np.linspace(-6.0, 6.0, n)
    err = np.abs(platanh(grid) - tanh_exact(grid))
    worst = int(np.argmax(err))
    line = f"max error {err[worst]:.5f} at x = {abs(grid[worst]):g}\n"
    sys.stdout.write(line)
    if opts["out_dir"]:
        out_dir = _ensure_out_dir(opts)
        path = os.path.join(out_dir, "activation-error.txt")
        with open(path, "w") as fh:
            fh.write(line)
        _write_manifest(out_dir, "activation-error", opts, [], [path])
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "detect": cmd_detect,
    "features": cmd_features,
    "train": cmd_train,
    "infer": cmd_infer,
    "selflearn": cmd_selflearn,
    "evaluate": cmd_evaluate,
    "sweep-fraction-bits": cmd_sweep,
    "activation-error": cmd_activation_error,
}


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecgarr",
        description="ECG arrhythmia pipeline: beat detection, feature "
                    "extraction, fixed-point classifier, rhythm monitor.",
    )
    parser.add_argument("--config", help="INI file with one section per command; "
                                         "flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    def record_flag(p, plural=False):
        if plural:
            p.add_argument("--record", dest="records", action="append",
                           default=[], metavar="HEADER",
                           help="record header path (repeatable)")
        else:
            p.add_argument("--record", metavar="HEADER", help="record header path")

    def common_out(p):
        p.add_argument("--out-dir", help="directory for artifacts + manifest")

    def channel_flag(p):
        p.add_argument("--channel", type=int, help="signal channel (default 0)")

    p = sub.add_parser("ingest", help="dump a record's samples and annotations")
    record_flag(p); channel_flag(p); common_out(p)

    p = sub.add_parser("detect", help="write detected R-peak indices")
    record_flag(p); channel_flag(p); common_out(p)

    p = sub.add_parser("features", help="build PCA model + beat feature table")
    record_flag(p, plural=True); channel_flag(p)
    p.add_argument("--peaks", metavar="FILE", help="peak list from detect")
    p.add_argument("--peaks-from-annotations", action="store_const", const=True,
                   help="take beat positions from the annotation file")
    p.add_argument("--window", type=int,
                   help=f"beat window length in samples, odd and >= {PCA_COMPONENTS} "
                        "(default 181)")
    common_out(p)

    p = sub.add_parser("train", help="fit the beat classifier on a feature table")
    p.add_argument("--features", metavar="FILE", help="table from features")
    p.add_argument("--seed", type=int, help="training seed (required)")
    p.add_argument("--hidden", type=int, help="hidden units (default 6)")
    p.add_argument("--max-epochs", type=int, help="epoch cap (default 1000)")
    p.add_argument("--activation", choices=("pla", "exact"),
                   help="piecewise-linear or exact tanh pair (default pla)")
    common_out(p)

    p = sub.add_parser("infer", help="classify a feature table with a saved model")
    p.add_argument("--features", metavar="FILE", help="table from features")
    p.add_argument("--model", metavar="FILE", help="model from train")
    p.add_argument("--total-bits", type=int,
                   help="quantize to this word size first (default 24)")
    p.add_argument("--fraction-bits", type=int,
                   help="quantize to this many fraction bits first (default 12)")
    common_out(p)

    p = sub.add_parser("selflearn", help="run the unsupervised rhythm monitor")
    record_flag(p); channel_flag(p)
    p.add_argument("--tolerance", type=float,
                   help="relative rhythm tolerance (default 0.15)")
    p.add_argument("--peaks", metavar="FILE", help="peak list from detect")
    p.add_argument("--peaks-from-annotations", action="store_const", const=True,
                   help="take beat positions from the annotation file")
    common_out(p)

    p = sub.add_parser("evaluate", help="train + score a whole experiment")
    record_flag(p, plural=True); channel_flag(p)
    p.add_argument("--classifier", choices=("pla", "exact", "fixed", "self-learner"),
                   help="evaluation mode (default pla)")
    p.add_argument("--detector", choices=("ann", "uni-dwt"),
                   help="beat source (default ann)")
    p.add_argument("--seed", type=int, help="training seed (required unless "
                                            "classifier is self-learner)")
    p.add_argument("--max-epochs", type=int, help="epoch cap (default 1000)")
    p.add_argument("--hidden", type=int, help="hidden units (default 6)")
    p.add_argument("--total-bits", type=int, help="fixed word size (default 24)")
    p.add_argument("--fraction-bits", type=int,
                   help="fixed fraction bits (default 12)")
    p.add_argument("--tolerance", type=float,
                   help="self-learner tolerance (default 0.15)")
    common_out(p)

    p = sub.add_parser("sweep-fraction-bits",
                       help="prediction drift of quantized vs real classifier")
    record_flag(p, plural=True); channel_flag(p)
    p.add_argument("--detector", choices=("ann", "uni-dwt"),
                   help="beat source (default ann)")
    p.add_argument("--seed", type=int, help="training seed (required)")
    p.add_argument("--max-epochs", type=int, help="epoch cap (default 1000)")
    p.add_argument("--hidden", type=int, help="hidden units (default 6)")
    p.add_argument("--total-bits", type=int, help="fixed word size (default 24)")
    p.add_argument("--fraction-bits-min", type=int,
                   help="sweep start (default 6)")
    p.add_argument("--fraction-bits-max", type=int,
                   help="sweep end, inclusive (default 14)")
    common_out(p)

    p = sub.add_parser("activation-error",
                       help="largest gap between the PL approximation and tanh")
    p.add_argument("--grid-step", type=float, help="grid spacing (default 1e-4)")
    common_out(p)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _effective_options(args, args.command)
        return _COMMANDS[args.command](opts)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
