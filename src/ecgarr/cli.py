"""Command-line front end.

Stages are separate subcommands wired by their file artifacts: ingest
dumps a record, detect writes a peak list, features turns record+peaks
into a PCA model and a feature table, train fits the classifier on a
feature table, infer applies a saved model, selflearn runs the rhythm
monitor, and evaluate / sweep-fraction-bits orchestrate whole
experiments.  Every command writes a manifest.json describing the
effective options plus content hashes of what it read and wrote, so a
run can be reproduced exactly.  A config file (INI, one section per
command) supplies defaults; command-line flags win.  Each option is one
row of ``_OPTIONS`` (flag, config key, type, default, valid range and
help), and every value is checked against its row before any file is
read.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .activation import platanh, tanh_exact
from .dsp import PeakTrain, detect_r_peaks
from .experiment import (
    CLASSIFIER_MODES,
    DETECTOR_MODES,
    SWEEP_FRACTION_BITS,
    PipelineConfig,
    annotated_beats,
    classifier_activations,
    label_peaks,
    record_signal,
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
from .fixedpoint import QFormat, check_accumulator
from .mlp import init_model, load_model, predict_batch, quantize_model, save_model, train
from .selflearn import run_self_learner, save_anomaly_log
from .wfdb_io import ingest_record

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags or malformed config; exits with the usage code."""


# PipelineConfig's field defaults, which the experiment commands share
_PIPELINE = {f.name: f.default for f in fields(PipelineConfig)}


@dataclass(frozen=True)
class _Option:
    """One row of the option table: a flag, and the config key of the
    same name, with its type, default, valid values and help."""

    flag: str
    help: str
    type: type = str  # bool is a switch, list a repeatable flag
    default: object = None  # None: the command requires it or goes without
    field: str | None = None  # the PipelineConfig field it sets and defaults from
    choices: tuple = ()
    valid: Callable | None = None
    rule: str = ""  # what valid accepts, for the help and the error
    metavar: str | None = None

    def __post_init__(self):
        if self.field is not None:
            object.__setattr__(self, "default", _PIPELINE[self.field])

    def add_to(self, parser, key: str) -> None:
        if self.type is bool:
            kind = {"action": "store_const", "const": True}
        elif self.type is list:
            kind = {"action": "append", "metavar": self.metavar}
        else:
            kind = {"type": self.type, "choices": self.choices or None,
                    "metavar": self.metavar}
        text = ", ".join(filter(None, (self.help, self.rule)))
        if self.default is not None and self.type is not bool:
            text += f" (default {self.default})"
        parser.add_argument(self.flag, dest=key, help=text, **kind)

    def parse(self, key: str, raw: str):
        """A config file's text for this option as a value."""
        try:
            if self.type is bool:
                return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
            return raw.split() if self.type is list else self.type(raw)
        except (KeyError, ValueError):
            raise UsageError(f"config value {key} = {raw!r} is malformed") from None

    def check(self, value, name: str) -> None:
        if self.choices and value not in self.choices:
            raise UsageError(f"{name}: must be one of {', '.join(self.choices)}")
        if self.valid is not None and not self.valid(value):
            raise UsageError(f"{name}: must be {self.rule}")


def _at_least(n: int) -> dict:
    return {"valid": lambda v: v >= n, "rule": f">= {n}"}


_OPTIONS = {
    "record": _Option("--record", "record header path", metavar="HEADER"),
    "records": _Option("--record", "record header path (repeatable)", list,
                       metavar="HEADER"),
    "channel": _Option("--channel", "signal channel", int, field="channel",
                       **_at_least(0)),
    "peaks": _Option("--peaks", "peak list from detect", metavar="FILE"),
    "peaks_from_annotations": _Option(
        "--peaks-from-annotations", "take beat positions from the annotation file",
        bool, False),
    # PCA needs at least one sample per component in a window
    "window": _Option("--window", "beat window length in samples", int,
                      2 * WINDOW_HALF_WIDTH + 1,
                      valid=lambda v: v % 2 == 1 and v >= PCA_COMPONENTS,
                      rule=f"odd and >= {PCA_COMPONENTS}, the PCA component count"),
    "features": _Option("--features", "table from features", metavar="FILE"),
    "model": _Option("--model", "model from train", metavar="FILE"),
    "seed": _Option("--seed", "training seed, required to train a net", int,
                    **_at_least(0)),
    "hidden": _Option("--hidden", "hidden units", int, field="hidden_units",
                      **_at_least(1)),
    "max_epochs": _Option("--max-epochs", "epoch cap", int, field="max_epochs",
                          **_at_least(1)),
    "activation": _Option("--activation", "piecewise-linear or exact tanh pair",
                          default="pla", choices=("pla", "exact")),
    "classifier": _Option("--classifier", "evaluation mode", field="classifier",
                          choices=CLASSIFIER_MODES),
    "detector": _Option("--detector", "beat source", field="detector",
                        choices=DETECTOR_MODES),
    "total_bits": _Option("--total-bits", "fixed-point word size", int,
                          field="total_bits"),
    "fraction_bits": _Option("--fraction-bits", "fixed-point fraction bits", int,
                             field="fraction_bits"),
    "fraction_bits_min": _Option("--fraction-bits-min", "sweep start", int,
                                 SWEEP_FRACTION_BITS[0]),
    "fraction_bits_max": _Option("--fraction-bits-max", "sweep end, inclusive", int,
                                 SWEEP_FRACTION_BITS[-1]),
    "tolerance": _Option("--tolerance", "relative rhythm tolerance", float,
                         field="tolerance_fraction",
                         valid=lambda v: 0 < v < 1, rule="in (0, 1)"),
    "grid_step": _Option("--grid-step", "grid spacing", float, 1e-4,
                         valid=lambda v: 0 < v <= 1, rule="in (0, 1]"),
    "out_dir": _Option("--out-dir", "directory for artifacts + manifest"),
}


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
    out = {}
    for key, raw in parser[command].items():
        key = key.replace("-", "_")
        if key not in _COMMANDS[command].options:
            raise UsageError(f"config key {key!r} is not a {command} option")
        out[key] = _OPTIONS[key].parse(key, raw)
    return out


def _effective_options(args: argparse.Namespace, command: str) -> dict:
    """Layer CLI flags over config-file values over the table's defaults,
    and check each given value before any input file is read."""
    spec = _COMMANDS[command]
    file_values = {}
    if args.config is not None:
        file_values = _load_config_section(args.config, command)
    out = {}
    for key in spec.options:
        option, value = _OPTIONS[key], getattr(args, key)
        if value is not None:
            option.check(value, f"{option.flag} {value}")
        elif key in file_values:
            value = file_values[key]
            option.check(value, f"config value {key} = {value}")
        elif key not in spec.unset:
            value = option.default
        out[key] = value
    if out.get("peaks") and out.get("peaks_from_annotations"):
        raise UsageError("--peaks and --peaks-from-annotations are exclusive")
    return out


def _require(opts: dict, command: str, *keys: str) -> None:
    for key in keys:
        if opts[key] in (None, []):
            raise UsageError(f"{command} needs {_OPTIONS[key].flag} (flag or config)")


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
    if opts.get("peaks"):
        idx = np.loadtxt(opts["peaks"], dtype=np.int64, ndmin=1)
        return PeakTrain(idx, record.header.sampling_frequency).r_indices
    if opts.get("peaks_from_annotations"):
        return annotated_beats(record)[0]
    peaks = detect_r_peaks(signal, record.header.sampling_frequency)
    return peaks.r_indices


def _qformat(total_bits: int, fraction_bits: int, layer_sizes=None,
             fraction_flag: str = "--fraction-bits") -> QFormat:
    """The Q format, checked on its own and, given the layer sizes, against
    the net's int64 accumulators."""
    try:
        fmt = QFormat(total_bits, fraction_bits)
        if layer_sizes is not None:
            check_accumulator(fmt, layer_sizes)
        return fmt
    except ValueError as exc:
        raise UsageError(
            f"--total-bits {total_bits} {fraction_flag} {fraction_bits}: {exc}") from None


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(opts) -> int:
    _require(opts, "ingest", "record", "out_dir")
    record = ingest_record(opts["record"])
    signal = record_signal(record, opts["channel"])
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
    signal = record_signal(record, opts["channel"])
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
    half_width = (opts["window"] - 1) // 2

    per_record = []
    inputs = []
    for header in opts["records"]:
        record = ingest_record(header)
        signal = record_signal(record, opts["channel"])
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
    rows = load_features(opts["features"])
    x = np.stack([r.features for r in rows])
    y = np.array([int(r.label) for r in rows])
    hidden, output = classifier_activations(opts["activation"])
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
    bits = None
    if opts["total_bits"] is not None or opts["fraction_bits"] is not None:
        bits = [_OPTIONS[k].default if opts[k] is None else opts[k]
                for k in ("total_bits", "fraction_bits")]
        _qformat(*bits)  # a malformed format fails before any file is read
    model = load_model(opts["model"])
    if bits is not None:
        model = quantize_model(model, _qformat(*bits, model.layer_sizes))
    rows = load_features(opts["features"])
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
    signal = record_signal(record, opts["channel"])
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


def _pipeline_config(opts) -> PipelineConfig:
    return PipelineConfig(
        record_paths=tuple(opts["records"]),
        seed=opts["seed"] if opts["seed"] is not None else 0,
        **{option.field: opts[key] for key, option in _OPTIONS.items()
           if option.field is not None and key in opts},
    )


def cmd_evaluate(opts) -> int:
    _require(opts, "evaluate", "records", "out_dir")
    if opts["classifier"] != "self-learner":
        _require(opts, "evaluate", "seed")
    _qformat(opts["total_bits"], opts["fraction_bits"], (12, opts["hidden"], 2))
    result = run_experiment(_pipeline_config(opts))
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
    _qformat(opts["total_bits"], hi, (12, opts["hidden"], 2), "--fraction-bits-max")
    if not 0 < lo <= hi < opts["total_bits"]:
        raise UsageError("need 0 < fraction-bits-min <= fraction-bits-max < total-bits")
    points = sweep_fraction_bits(_pipeline_config(opts), tuple(range(lo, hi + 1)))
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
    n = int(round(12.0 / opts["grid_step"])) + 1
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


@dataclass(frozen=True)
class _Command:
    run: Callable
    help: str
    options: tuple  # _OPTIONS keys, in --help order
    unset: tuple = ()  # options left None unless given


_COMMANDS = {
    "ingest": _Command(cmd_ingest, "dump a record's samples and annotations",
                       ("record", "channel", "out_dir")),
    "detect": _Command(cmd_detect, "write detected R-peak indices",
                       ("record", "channel", "out_dir")),
    "features": _Command(cmd_features, "build PCA model + beat feature table",
                         ("records", "channel", "peaks", "peaks_from_annotations",
                          "window", "out_dir")),
    "train": _Command(cmd_train, "fit the beat classifier on a feature table",
                      ("features", "seed", "hidden", "max_epochs", "activation",
                       "out_dir")),
    "infer": _Command(cmd_infer, "classify a feature table with a saved model, "
                                 "quantized first if a format flag is given",
                      ("features", "model", "total_bits", "fraction_bits", "out_dir"),
                      unset=("total_bits", "fraction_bits")),
    "selflearn": _Command(cmd_selflearn, "run the unsupervised rhythm monitor",
                          ("record", "channel", "tolerance", "peaks",
                           "peaks_from_annotations", "out_dir")),
    "evaluate": _Command(cmd_evaluate, "train + score a whole experiment",
                         ("records", "channel", "classifier", "detector", "seed",
                          "max_epochs", "hidden", "total_bits", "fraction_bits",
                          "tolerance", "out_dir")),
    "sweep-fraction-bits": _Command(
        cmd_sweep, "prediction drift of quantized vs real classifier",
        ("records", "channel", "detector", "seed", "max_epochs", "hidden",
         "total_bits", "fraction_bits_min", "fraction_bits_max", "out_dir")),
    "activation-error": _Command(
        cmd_activation_error, "largest gap between the PL approximation and tanh",
        ("grid_step", "out_dir")),
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
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for key in spec.options:
            _OPTIONS[key].add_to(p, key)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _effective_options(args, args.command)
        return _COMMANDS[args.command].run(opts)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
