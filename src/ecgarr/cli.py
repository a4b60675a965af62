"""Command-line front end.

Stages are separate subcommands wired by their file artifacts: ingest
dumps a record, detect writes a peak list, features turns record+peaks
into a PCA model and a feature table, train fits the classifier on a
feature table, infer applies a saved model, selflearn runs the rhythm
monitor, and evaluate / sweep-fraction-bits orchestrate whole
experiments.  A command returns its artifacts and the text it prints;
``main`` checks the command's required options, runs it, and writes the
artifacts into the out dir with a manifest.json describing the
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
from functools import partial
from typing import Callable

import numpy as np

from .activation import platanh, tanh_exact
from .experiment import (
    CLASSIFIER_MODES,
    DETECTOR_MODES,
    SWEEP_FRACTION_BITS,
    PipelineConfig,
    map_records,
    read_beats,
    record_table,
    render_experiment,
    render_sweep,
    run_experiment,
    sweep_fraction_bits,
)
from .features import (
    PCA_COMPONENTS,
    WINDOW_HALF_WIDTH,
    BeatFeatureRow,
    feature_matrix,
    fit_pca,
    load_features,
    save_features,
    save_pca_model,
)
from .fixedpoint import QFormat, check_accumulator
from .mlp import (ACTIVATIONS, init_model, load_model, predict_batch, quantize_model,
                  save_model, train)
from .selflearn import run_self_learner, save_anomaly_log
from .wfdb_io import SYMBOL_BY_CODE, read_header, read_record, record_files

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
    once: bool = False  # a second flag is an error, not the value that wins

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
                    "metavar": self.metavar, "action": _Once if self.once else "store"}
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


class _Once(argparse.Action):
    """Store a flag's one value; a second one is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} given twice; this command takes one")
        setattr(namespace, self.dest, values)


def _at_least(n: int) -> dict:
    return {"valid": lambda v: v >= n, "rule": f">= {n}"}


_OPTIONS = {
    "record": _Option("--record", "record header path", metavar="HEADER", once=True),
    "records": _Option("--record", "record header path (repeatable)", list,
                       metavar="HEADER"),
    "channel": _Option("--channel", "signal channel", int, field="channel",
                       **_at_least(0)),
    "peaks": _Option("--peaks", "peak list from detect", metavar="FILE", once=True),
    "peaks_from_annotations": _Option(
        "--peaks-from-annotations", "take beat positions from the annotation file",
        bool, False),
    # PCA needs at least one sample per component in a window
    "window": _Option("--window", "beat window length in samples", int,
                      2 * WINDOW_HALF_WIDTH + 1,
                      valid=lambda v: v % 2 == 1 and v >= PCA_COMPONENTS,
                      rule=f"odd and >= {PCA_COMPONENTS}, the PCA component count"),
    "features": _Option("--features", "table from features", metavar="FILE", once=True),
    "model": _Option("--model", "model from train", metavar="FILE", once=True),
    "seed": _Option("--seed", "training seed, required to train a net", int,
                    **_at_least(0)),
    "hidden": _Option("--hidden", "hidden units", int, field="hidden_units",
                      **_at_least(1)),
    "max_epochs": _Option("--max-epochs", "epoch cap", int, field="max_epochs",
                          **_at_least(1)),
    "activation": _Option("--activation", "piecewise-linear or exact tanh",
                          default="pla", choices=tuple(ACTIVATIONS)),
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
    # the error curve takes about 50 bytes a grid point: 12e6 points, 0.6 GB, at 1e-6
    "grid_step": _Option("--grid-step", "grid spacing", float, 1e-4,
                         valid=lambda v: 1e-6 <= v <= 1, rule="in [1e-6, 1]"),
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
    if out.get("peaks") and len(out.get("records") or ()) > 1:
        raise UsageError("--peaks holds one record's peaks: give one --record")
    return out


# ---------------------------------------------------------------------------
# artifacts and manifest


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_paths(opts: dict) -> list[str]:
    """Every file a run reads: each record's files (record_files) that
    exist, then the peaks, features and model files."""
    headers = opts.get("records") or ([opts["record"]] if opts.get("record") else [])
    paths = [p for header in headers for p in record_files(header, read_header(header))
             if os.path.exists(p)]
    return paths + [opts[k] for k in ("peaks", "features", "model") if opts.get(k)]


def _write_artifacts(command: str, opts: dict, artifacts: dict) -> None:
    """Make the out dir, write each artifact (its text, or a function
    that writes the path) and a manifest.json of the effective options
    and the hashes of what the run read and wrote."""
    out_dir = opts["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    for name, content in artifacts.items():
        path = os.path.join(out_dir, name)
        if callable(content):
            content(path)
        else:
            with open(path, "w") as fh:
                fh.write(content)
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(opts.items()) if k != "out_dir"},
        "inputs": {p: _sha256(p) for p in sorted(set(_input_paths(opts)))},
        "outputs": {name: _sha256(os.path.join(out_dir, name)) for name in artifacts},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# the fixed-point format check


def _qformat(total_bits: int, fraction_bits: int, layer_sizes=None,
             fraction_flag: str = "--fraction-bits") -> QFormat:
    """The Q format, checked on its own and, given the layer sizes, against
    the 53 accumulator bits of the fixed-point kernel (check_accumulator)."""
    try:
        fmt = QFormat(total_bits, fraction_bits)
        if layer_sizes is not None:
            check_accumulator(fmt, layer_sizes)
        return fmt
    except ValueError as exc:
        raise UsageError(
            f"--total-bits {total_bits} {fraction_flag} {fraction_bits}: {exc}") from None


# ---------------------------------------------------------------------------
# commands: each takes the effective options and returns its artifacts
# (out-dir file name -> text, or a function that writes the path) and
# the text it prints


def _lines(values) -> str:
    return "".join(f"{v}\n" for v in values)


def cmd_ingest(opts):
    header, series, index, codes = read_record(opts["record"], {opts["channel"]})
    samples = series[opts["channel"]]
    name = header.record_name
    # an unknown code's symbol prints as None
    annotations = [f"{i},{SYMBOL_BY_CODE.get(c)}" for i, c in zip(index.tolist(), codes.tolist())]
    return ({f"{name}-signal.txt": _lines(samples.tolist()),
             f"{name}-annotations.txt": _lines(["sample_index,symbol", *annotations])},
            f"{name}: {samples.size} samples, {index.size} annotations\n")


def cmd_detect(opts):
    name, _, _, peaks, _, _ = read_beats(opts["record"], opts["channel"], "uni-dwt")
    return ({f"{name}-peaks.txt": _lines(peaks.tolist())},
            f"{name}: {peaks.size} peaks\n")


def cmd_features(opts):
    detector = "ann" if opts["peaks_from_annotations"] else "uni-dwt"
    load = partial(record_table, channel=opts["channel"], detector=detector,
                   half_width=(opts["window"] - 1) // 2, peaks_file=opts["peaks"])
    per_record = map_records(load, opts["records"])
    if not sum(len(beats) for _, beats in per_record):
        raise ValueError("no usable labeled beats in the given records")

    pca = fit_pca(np.vstack([beats.windows for _, beats in per_record]))
    table = [
        BeatFeatureRow(record_id=name, r_index=r, features=features, label=str(label))
        for name, beats in per_record
        for r, features, label in zip(beats.r_index.tolist(), feature_matrix(pca, beats),
                                      beats.labels.tolist())
    ]
    return ({"pca.txt": lambda path: save_pca_model(path, pca),
             "features.txt": lambda path: save_features(path, table)},
            f"{len(table)} beats from {len(per_record)} record(s)\n")


def cmd_train(opts):
    rows = load_features(opts["features"], labels=("0", "1"))
    x = np.stack([r.features for r in rows])
    y = np.array([int(r.label) for r in rows])
    arch = init_model(opts["seed"], (12, opts["hidden"], 2), opts["activation"])
    model, report = train(arch, x, y, max_epochs=opts["max_epochs"],
                          seed=opts["seed"])
    return ({"model.txt": lambda path: save_model(path, model),
             "history.txt": _lines(format(v, ".17g") for v in report.mse_history)},
            f"{report.epochs} epochs, stop: {report.stop_reason}, "
            f"final mse {report.mse_history[-1]:.8f}\n")


def cmd_infer(opts):
    bits = None
    if opts["total_bits"] is not None or opts["fraction_bits"] is not None:
        bits = [_OPTIONS[k].default if opts[k] is None else opts[k]
                for k in ("total_bits", "fraction_bits")]
        _qformat(*bits)  # a malformed format fails before any file is read
    model = load_model(opts["model"])
    if bits is not None:
        model = quantize_model(model, _qformat(*bits, model.layer_sizes))
    rows = load_features(opts["features"])
    pred = predict_batch(model, np.stack([r.features for r in rows]))
    verdicts = [f"{row.record_id},{row.r_index},{row.label},{int(p)}"
                for row, p in zip(rows, pred)]
    return ({"verdicts.txt": _lines(["record,r_index,label,prediction", *verdicts])},
            f"{len(rows)} beats, {int(np.sum(pred == 1))} flagged\n")


def cmd_selflearn(opts):
    detector = "ann" if opts["peaks_from_annotations"] else "uni-dwt"
    name, _, _, peaks, _, _ = read_beats(opts["record"], opts["channel"], detector,
                                         opts["peaks"])
    events, state, _ = run_self_learner(peaks, tolerance_fraction=opts["tolerance"])
    return ({"anomalies.csv": lambda path: save_anomaly_log(path, name, events)},
            f"{name}: {len(events)} anomalies, stable interval {state.st_rr:g} samples\n")


def _pipeline_config(opts) -> PipelineConfig:
    return PipelineConfig(
        record_paths=tuple(opts["records"]),
        seed=opts["seed"] if opts["seed"] is not None else 0,
        **{option.field: opts[key] for key, option in _OPTIONS.items()
           if option.field is not None and key in opts},
    )


def cmd_evaluate(opts):
    if opts["classifier"] != "self-learner" and opts["seed"] is None:
        raise UsageError("evaluate needs --seed (flag or config)")
    # every mode parses the format; only the fixed classifier quantizes
    sizes = (12, opts["hidden"], 2) if opts["classifier"] == "fixed" else None
    _qformat(opts["total_bits"], opts["fraction_bits"], sizes)
    text = render_experiment(run_experiment(_pipeline_config(opts)))
    return {"report.txt": text}, text


def cmd_sweep(opts):
    lo, hi = opts["fraction_bits_min"], opts["fraction_bits_max"]
    _qformat(opts["total_bits"], hi, (12, opts["hidden"], 2), "--fraction-bits-max")
    if not 0 < lo <= hi < opts["total_bits"]:
        raise UsageError("need 0 < fraction-bits-min <= fraction-bits-max < total-bits")
    text = render_sweep(sweep_fraction_bits(_pipeline_config(opts),
                                            tuple(range(lo, hi + 1))))
    return {"sweep.txt": text}, text


def cmd_activation_error(opts):
    n = int(round(12.0 / opts["grid_step"])) + 1
    grid = np.linspace(-6.0, 6.0, n)
    err = np.abs(platanh(grid) - tanh_exact(grid))
    worst = int(np.argmax(err))
    line = f"max error {err[worst]:.5f} at x = {abs(grid[worst]):g}\n"
    return {"activation-error.txt": line}, line


@dataclass(frozen=True)
class _Command:
    run: Callable  # opts -> (artifacts, stdout text)
    help: str
    options: tuple  # _OPTIONS keys, in --help order
    required: tuple = ()  # options the command cannot run without, checked in order
    unset: tuple = ()  # options left None unless given


_COMMANDS = {
    "ingest": _Command(cmd_ingest, "dump a record's samples and annotations",
                       ("record", "channel", "out_dir"), ("record", "out_dir")),
    "detect": _Command(cmd_detect, "write detected R-peak indices",
                       ("record", "channel", "out_dir"), ("record", "out_dir")),
    "features": _Command(cmd_features, "build PCA model + beat feature table",
                         ("records", "channel", "peaks", "peaks_from_annotations",
                          "window", "out_dir"), ("records", "out_dir")),
    "train": _Command(cmd_train, "fit the beat classifier on a feature table",
                      ("features", "seed", "hidden", "max_epochs", "activation",
                       "out_dir"), ("features", "seed", "out_dir")),
    "infer": _Command(cmd_infer, "classify a feature table with a saved model, "
                                 "quantized first if a format flag is given",
                      ("features", "model", "total_bits", "fraction_bits", "out_dir"),
                      ("features", "model", "out_dir"),
                      unset=("total_bits", "fraction_bits")),
    "selflearn": _Command(cmd_selflearn, "run the unsupervised rhythm monitor",
                          ("record", "channel", "tolerance", "peaks",
                           "peaks_from_annotations", "out_dir"), ("record", "out_dir")),
    # evaluate needs --seed only to train a net, which cmd_evaluate checks
    "evaluate": _Command(cmd_evaluate, "train + score a whole experiment",
                         ("records", "channel", "classifier", "detector", "seed",
                          "max_epochs", "hidden", "total_bits", "fraction_bits",
                          "tolerance", "out_dir"), ("records", "out_dir")),
    "sweep-fraction-bits": _Command(
        cmd_sweep, "prediction drift of quantized vs real classifier",
        ("records", "channel", "detector", "seed", "max_epochs", "hidden",
         "total_bits", "fraction_bits_min", "fraction_bits_max", "out_dir"),
        ("records", "seed", "out_dir")),
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
    spec = _COMMANDS[args.command]
    try:
        opts = _effective_options(args, args.command)
        for key in spec.required:
            if opts[key] in (None, []):
                raise UsageError(
                    f"{args.command} needs {_OPTIONS[key].flag} (flag or config)")
        artifacts, summary = spec.run(opts)
        if opts["out_dir"]:
            _write_artifacts(args.command, opts, artifacts)
        sys.stdout.write(summary)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
