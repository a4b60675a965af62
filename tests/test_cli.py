"""Command-line behavior: artifact chains, manifests, config layering,
determinism, and failure exit codes.

main() is driven in-process with argv lists; every command's artifacts
land in per-test directories.
"""

import hashlib
import json
import os
import re

import numpy as np
import pytest

from ecgarr.cli import main
from ecgarr.experiment import SWEEP_FRACTION_BITS, PipelineConfig
from ecgarr.features import WINDOW_HALF_WIDTH, load_features
from ecgarr.fixedpoint import QFormat
from ecgarr.mlp import init_model, load_model, predict_batch, quantize_model, save_model
from ecgarr.selflearn import load_anomaly_log
from wfdb_fixtures import DROPPED_BEATS, classifier_record, dropout_record


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    d = tmp_path_factory.mktemp("clirecords")
    return {
        "a": classifier_record(d, "recA", seed=0),
        "b": classifier_record(d, "recB", seed=1),
        "drop": dropout_record(d, "recC"),
    }


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the documented one-liner


def test_activation_error_prints_claim(capsys):
    assert main(["activation-error"]) == 0
    out = capsys.readouterr().out
    assert out == "max error 0.03788 at x = 0.5\n"


def test_activation_error_coarse_grid(capsys):
    assert main(["activation-error", "--grid-step", "0.001"]) == 0
    assert "at x = 0.5" in capsys.readouterr().out


def test_activation_error_artifact(tmp_path, capsys):
    out = str(tmp_path / "act")
    assert main(["activation-error", "--out-dir", out]) == 0
    with open(os.path.join(out, "activation-error.txt")) as fh:
        assert fh.read() == capsys.readouterr().out
    manifest = read_manifest(out)
    assert manifest["command"] == "activation-error"
    assert "activation-error.txt" in manifest["outputs"]


# ---------------------------------------------------------------------------
# stage-by-stage pipeline on one record


def test_pipeline_chain(records, tmp_path, capsys):
    ingest_dir = str(tmp_path / "ingest")
    assert main(["ingest", "--record", records["a"], "--out-dir", ingest_dir]) == 0
    signal_lines = open(os.path.join(ingest_dir, "recA-signal.txt")).read().splitlines()
    ann_lines = open(os.path.join(ingest_dir, "recA-annotations.txt")).read().splitlines()
    assert len(signal_lines) == 150 + 300 * 39 + 150
    assert ann_lines[0] == "sample_index,symbol"
    assert len(ann_lines) == 41
    assert ann_lines[1] == "150,N" and ann_lines[2] == "450,V"

    detect_dir = str(tmp_path / "detect")
    assert main(["detect", "--record", records["a"], "--out-dir", detect_dir]) == 0
    peaks_path = os.path.join(detect_dir, "recA-peaks.txt")
    peaks = np.loadtxt(peaks_path, dtype=int)
    assert peaks.size == 40
    assert set(peaks) == {150 + 300 * k for k in range(40)}

    feat_dir = str(tmp_path / "features")
    assert main(["features", "--record", records["a"], "--peaks", peaks_path,
                 "--out-dir", feat_dir]) == 0
    features_path = os.path.join(feat_dir, "features.txt")
    rows = open(features_path).read().splitlines()
    assert rows[0].startswith("record,r_index,f00")
    assert len(rows) == 39  # 38 interior beats + header

    train_dir = str(tmp_path / "train")
    assert main(["train", "--features", features_path, "--seed", "3",
                 "--max-epochs", "150", "--out-dir", train_dir]) == 0
    model_path = os.path.join(train_dir, "model.txt")
    history = open(os.path.join(train_dir, "history.txt")).read().splitlines()
    assert history and float(history[-1]) < float(history[0])

    infer_dir = str(tmp_path / "infer")
    assert main(["infer", "--features", features_path, "--model", model_path,
                 "--out-dir", infer_dir]) == 0
    verdict_lines = open(os.path.join(infer_dir, "verdicts.txt")).read().splitlines()
    assert verdict_lines[0] == "record,r_index,label,prediction"
    body = [line.split(",") for line in verdict_lines[1:]]
    assert len(body) == 38
    # training set is separable, the fitted model must nail it
    assert all(label == pred for _, _, label, pred in body)

    manifest = read_manifest(infer_dir)
    assert manifest["command"] == "infer"
    assert manifest["inputs"][features_path] == sha256(features_path)
    assert manifest["outputs"]["verdicts.txt"] == sha256(
        os.path.join(infer_dir, "verdicts.txt"))
    capsys.readouterr()


def _trained_features_and_model(records, tmp_path):
    feat_dir = str(tmp_path / "f")
    main(["features", "--record", records["a"], "--peaks-from-annotations",
          "--out-dir", feat_dir])
    train_dir = str(tmp_path / "t")
    main(["train", "--features", os.path.join(feat_dir, "features.txt"),
          "--seed", "3", "--max-epochs", "150", "--out-dir", train_dir])
    return os.path.join(feat_dir, "features.txt"), os.path.join(train_dir, "model.txt")


def test_infer_quantized_path(records, tmp_path):
    features_path, model_path = _trained_features_and_model(records, tmp_path)
    out = str(tmp_path / "q")
    assert main(["infer", "--features", features_path, "--model", model_path,
                 "--fraction-bits", "12", "--out-dir", out]) == 0
    manifest = read_manifest(out)
    assert manifest["config"]["fraction_bits"] == 12
    fixed_lines = open(os.path.join(out, "verdicts.txt")).read().splitlines()[1:]
    assert all(ln.split(",")[2] == ln.split(",")[3] for ln in fixed_lines)


def test_infer_zero_fraction_bits_runs_integer_format(records, tmp_path, capsys):
    features_path, model_path = _trained_features_and_model(records, tmp_path)
    out = str(tmp_path / "q0")
    assert main(["infer", "--features", features_path, "--model", model_path,
                 "--fraction-bits", "0", "--out-dir", out]) == 0
    assert read_manifest(out)["config"]["fraction_bits"] == 0
    rows = load_features(features_path)
    want = predict_batch(quantize_model(load_model(model_path), QFormat(24, 0)),
                         np.stack([r.features for r in rows]))
    got = [int(ln.split(",")[3]) for ln in
           open(os.path.join(out, "verdicts.txt")).read().splitlines()[1:]]
    assert got == want.tolist()
    q12 = predict_batch(quantize_model(load_model(model_path), QFormat(24, 12)),
                        np.stack([r.features for r in rows]))
    assert got != q12.tolist()  # Q24.0 really differs on this fixture
    capsys.readouterr()


BAD_FORMATS = [["--total-bits", "0"], ["--total-bits", "1"],
               ["--total-bits", "8", "--fraction-bits", "8"], ["--fraction-bits", "-1"]]

# (command, config key, value) outside the option's range; each case is
# given once as a flag and once as a config line
BAD_VALUES = [("evaluate", "max_epochs", "0"), ("evaluate", "max_epochs", "-3"),
              ("evaluate", "hidden", "0"), ("evaluate", "seed", "-1"),
              ("train", "max_epochs", "0"), ("sweep-fraction-bits", "max_epochs", "0"),
              ("selflearn", "tolerance", "1.5"),
              *[(c, "channel", "-1") for c in ("ingest", "detect", "features", "selflearn")]]

# valid Q formats whose dot products overflow an int64 accumulator on the
# net's layer sizes; infer reads its model for those, never its features
OVERFLOWS = [["infer", "--total-bits", "40", "--fraction-bits", "20"],
             ["infer", "--total-bits", "31"],
             ["evaluate", "--classifier", "fixed", "--total-bits", "40", "--fraction-bits", "20"],
             ["evaluate", "--classifier", "fixed", "--total-bits", "31"],
             ["evaluate", "--classifier", "fixed", "--hidden", "65535"],
             ["sweep-fraction-bits", "--total-bits", "40", "--fraction-bits-max", "20"]]


@pytest.mark.parametrize("flags", [["infer", *f] for f in BAD_FORMATS]
                         + [["evaluate", "--classifier", c, *f]
                            for c in ("fixed", "pla") for f in BAD_FORMATS]
                         # shorter than the 10 PCA components
                         + [["features", "--window", str(w)] for w in (3, 5, 7, 9)]
                         + [[c, "--" + k.replace("_", "-"), v] for c, k, v in BAD_VALUES]
                         # a config line, then the command whose section holds it
                         + [["--config", f"{k} = {v}", c] for c, k, v in
                            [*BAD_VALUES, ("evaluate", "classifier", "bogus")]]
                         + OVERFLOWS)
def test_infer_rejects_bad_format(tmp_path, capsys, flags):
    # a bad value is checked before any input file is read
    missing = str(tmp_path / "missing.txt")
    out = str(tmp_path / "bad")
    model = str(tmp_path / "model.txt")
    save_model(model, init_model(seed=0))
    inputs = {"infer": {"--features": missing,
                        "--model": model if flags in OVERFLOWS else missing},
              "train": {"--features": missing, "--seed": "0"},
              "evaluate": {"--record": missing, "--seed": "0"},
              "sweep-fraction-bits": {"--record": missing, "--seed": "0"},
              "features": {"--record": missing},
              "ingest": {"--record": missing},
              "detect": {"--record": missing},
              "selflearn": {"--record": missing}}
    if flags[0] == "--config":
        key, command = flags[1].split()[0], flags[2]
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{command}]\n{flags[1]}\n")
        # a flag would override the config line
        given = {f: v for f, v in inputs[command].items()
                 if f != "--" + key.replace("_", "-")}
        argv = ["--config", str(cfg), command, *sum(given.items(), ())]
    else:
        argv = [flags[0], *sum(inputs[flags[0]].items(), ()), *flags[1:]]
    assert main([*argv, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    if flags[0] == "--config":
        assert err.startswith(f"error: config value {key} = ")
    elif flags in OVERFLOWS:
        assert err.startswith("error: --total-bits ") and "--fraction-bits" in err
        assert "int64" in err and f"(12, {6 if '--hidden' not in flags else 65535}, 2)" in err
    elif "--window" in flags:
        assert err.startswith("error: --window ") and "PCA" in err
    elif "--total-bits" in flags or "--fraction-bits" in flags:
        assert err.startswith("error: --total-bits ") and "--fraction-bits" in err
    else:
        assert err.startswith(f"error: {flags[1]} ")
    assert not os.path.exists(out)


def test_train_is_deterministic(records, tmp_path):
    feat_dir = str(tmp_path / "f")
    main(["features", "--record", records["a"], "--peaks-from-annotations",
          "--out-dir", feat_dir])
    features_path = os.path.join(feat_dir, "features.txt")
    outs = []
    for name in ("one", "two"):
        out = str(tmp_path / name)
        assert main(["train", "--features", features_path, "--seed", "7",
                     "--out-dir", out]) == 0
        outs.append(out)
    first, second = (open(os.path.join(o, "model.txt"), "rb").read() for o in outs)
    assert first == second
    assert (read_manifest(outs[0]) == read_manifest(outs[1]))


# ---------------------------------------------------------------------------
# rhythm monitor command


def test_selflearn_dropout_record(records, tmp_path, capsys):
    out = str(tmp_path / "sl")
    assert main(["selflearn", "--record", records["drop"],
                 "--tolerance", "0.15", "--out-dir", out]) == 0
    rows = load_anomaly_log(os.path.join(out, "anomalies.csv"))
    assert [ev.kind for _, ev in rows] == ["missing_beat", "missing_beat"]
    # flagged at the last sound beat + ceil(345 * 1.15) samples
    expected = {400 + 345 * (k - 1) + 397 for k in DROPPED_BEATS}
    assert {ev.sample_index for _, ev in rows} == expected
    assert all(rid == "recC" for rid, _ in rows)
    assert "2 anomalies" in capsys.readouterr().out


def test_selflearn_annotation_peaks_sees_steady_rhythm(records, tmp_path):
    # annotations mark the dropped beats too, so the interval stream is
    # perfectly regular from this vantage point
    out = str(tmp_path / "sl-ann")
    assert main(["selflearn", "--record", records["drop"],
                 "--peaks-from-annotations", "--out-dir", out]) == 0
    assert load_anomaly_log(os.path.join(out, "anomalies.csv")) == []


# ---------------------------------------------------------------------------
# orchestration commands


def test_evaluate_command(records, tmp_path, capsys):
    out = str(tmp_path / "eval")
    assert main(["evaluate", "--record", records["a"], "--record", records["b"],
                 "--classifier", "fixed", "--seed", "3",
                 "--max-epochs", "150", "--out-dir", out]) == 0
    report = open(os.path.join(out, "report.txt")).read()
    assert report == capsys.readouterr().out
    assert "records 2" in report
    assert "-- pooled" in report
    assert "accuracy 1.000000" in report
    assert "config.classifier fixed" in report
    manifest = read_manifest(out)
    assert manifest["config"]["seed"] == 3
    assert len(manifest["inputs"]) == 6  # .hea/.dat/.atr per record


def test_evaluate_self_learner_needs_no_seed(records, tmp_path, capsys):
    out = str(tmp_path / "eval-sl")
    assert main(["evaluate", "--record", records["drop"],
                 "--classifier", "self-learner", "--out-dir", out]) == 0
    report = open(os.path.join(out, "report.txt")).read()
    assert "config.split full-record" in report
    capsys.readouterr()


def test_sweep_command(records, tmp_path, capsys):
    out = str(tmp_path / "sweep")
    assert main(["sweep-fraction-bits", "--record", records["a"],
                 "--record", records["b"], "--seed", "3", "--max-epochs", "150",
                 "--fraction-bits-min", "11", "--fraction-bits-max", "13",
                 "--out-dir", out]) == 0
    text = open(os.path.join(out, "sweep.txt")).read()
    assert text.splitlines()[0] == "fraction_bits disagreements total fraction"
    assert len(text.splitlines()) == 4
    assert "12 0 38 0.000000" in text
    capsys.readouterr()


def test_no_command_mutates_inputs(records, tmp_path):
    stems = [os.path.splitext(records[k])[0] for k in ("a", "drop")]
    paths = [s + ext for s in stems for ext in (".hea", ".dat", ".atr")]
    before = {p: sha256(p) for p in paths}
    main(["evaluate", "--record", records["a"], "--classifier", "pla",
          "--seed", "3", "--max-epochs", "50",
          "--out-dir", str(tmp_path / "e")])
    main(["selflearn", "--record", records["drop"],
          "--out-dir", str(tmp_path / "s")])
    assert {p: sha256(p) for p in paths} == before


# ---------------------------------------------------------------------------
# config file layering


def test_config_supplies_defaults_flags_override(records, tmp_path):
    feat_dir = str(tmp_path / "f")
    main(["features", "--record", records["a"], "--peaks-from-annotations",
          "--out-dir", feat_dir])
    features_path = os.path.join(feat_dir, "features.txt")
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[train]\n"
        f"features = {features_path}\n"
        "seed = 7\n"
        "max_epochs = 60\n"
    )
    out1 = str(tmp_path / "from-config")
    assert main(["--config", str(cfg), "train", "--out-dir", out1]) == 0
    assert read_manifest(out1)["config"]["seed"] == 7
    out2 = str(tmp_path / "overridden")
    assert main(["--config", str(cfg), "train", "--seed", "9",
                 "--out-dir", out2]) == 0
    assert read_manifest(out2)["config"]["seed"] == 9
    models = [open(os.path.join(o, "model.txt"), "rb").read() for o in (out1, out2)]
    assert models[0] != models[1]


def test_config_unknown_key(records, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[train]\nbogus = 1\n")
    rc = main(["--config", str(cfg), "train", "--features", "x", "--seed", "1",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "not a train option" in capsys.readouterr().err


def test_config_malformed_value(records, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[train]\nseed = soon\n")
    rc = main(["--config", str(cfg), "train", "--features", "x",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "malformed" in capsys.readouterr().err


def test_config_file_missing(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "ghost.ini"), "activation-error"])
    assert rc == 2
    assert "config file not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# failure exit codes


def test_missing_required_flag(capsys):
    assert main(["train"]) == 2
    assert "--features" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["features", "evaluate", "sweep-fraction-bits"])
def test_pca_components_flag_is_usage_error(command):
    # the 12-6-2 net takes exactly 10 PCA scores; there is no such option
    with pytest.raises(SystemExit) as exc:
        main([command, "--pca-components", "10"])
    assert exc.value.code == 2


def test_pca_components_config_key_is_usage_error(records, tmp_path, capsys):
    cfg = tmp_path / "pca.ini"
    cfg.write_text("[evaluate]\npca_components = 10\n")
    rc = main(["--config", str(cfg), "evaluate", "--record", records["a"],
               "--seed", "1", "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "'pca_components' is not a evaluate option" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_missing_record_file(tmp_path, capsys):
    rc = main(["detect", "--record", str(tmp_path / "ghost.hea"),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_even_window_rejected(records, tmp_path, capsys):
    rc = main(["features", "--record", records["a"], "--window", "180",
               "--peaks-from-annotations", "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "odd" in capsys.readouterr().err


def test_exclusive_peak_sources(tmp_path, capsys):
    # rejected before the record, which does not exist, is read
    argv = ["features", "--record", str(tmp_path / "ghost.hea"), "--peaks", "some.txt",
            "--out-dir", str(tmp_path / "o")]
    assert main([*argv, "--peaks-from-annotations"]) == 2
    assert "exclusive" in capsys.readouterr().err
    cfg = tmp_path / "both.ini"
    cfg.write_text("[features]\npeaks_from_annotations = yes\n")
    assert main(["--config", str(cfg), *argv]) == 2
    assert "exclusive" in capsys.readouterr().err


def test_channel_out_of_range_fails(records, tmp_path, capsys):
    rc = main(["detect", "--record", records["a"], "--channel", "1",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


_PIPELINE = PipelineConfig(record_paths=("x.hea",))
# each subcommand's flags in --help order; a default is the value it
# comes from, None where the flag has none
HELP_FLAGS = {
    "ingest": {"--record": None, "--channel": _PIPELINE.channel, "--out-dir": None},
    "detect": {"--record": None, "--channel": _PIPELINE.channel, "--out-dir": None},
    "features": {"--record": None, "--channel": _PIPELINE.channel, "--peaks": None,
                 "--peaks-from-annotations": None,
                 "--window": 2 * WINDOW_HALF_WIDTH + 1, "--out-dir": None},
    "train": {"--features": None, "--seed": None, "--hidden": _PIPELINE.hidden_units,
              "--max-epochs": _PIPELINE.max_epochs, "--activation": "pla",
              "--out-dir": None},
    "infer": {"--features": None, "--model": None,
              "--total-bits": _PIPELINE.total_bits,
              "--fraction-bits": _PIPELINE.fraction_bits, "--out-dir": None},
    "selflearn": {"--record": None, "--channel": _PIPELINE.channel,
                  "--tolerance": _PIPELINE.tolerance_fraction, "--peaks": None,
                  "--peaks-from-annotations": None, "--out-dir": None},
    "evaluate": {"--record": None, "--channel": _PIPELINE.channel,
                 "--classifier": _PIPELINE.classifier, "--detector": _PIPELINE.detector,
                 "--seed": None, "--max-epochs": _PIPELINE.max_epochs,
                 "--hidden": _PIPELINE.hidden_units, "--total-bits": _PIPELINE.total_bits,
                 "--fraction-bits": _PIPELINE.fraction_bits,
                 "--tolerance": _PIPELINE.tolerance_fraction, "--out-dir": None},
    "sweep-fraction-bits": {
        "--record": None, "--channel": _PIPELINE.channel, "--detector": _PIPELINE.detector,
        "--seed": None, "--max-epochs": _PIPELINE.max_epochs,
        "--hidden": _PIPELINE.hidden_units, "--total-bits": _PIPELINE.total_bits,
        "--fraction-bits-min": SWEEP_FRACTION_BITS[0],
        "--fraction-bits-max": SWEEP_FRACTION_BITS[-1], "--out-dir": None},
    "activation-error": {"--grid-step": 1e-4, "--out-dir": None},
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_prints_source_defaults(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    options = " ".join(capsys.readouterr().out.split()).split(" options: ")[1]
    # each entry runs from its flag to the next flag
    entries = {e.split()[0]: e for e in re.split(r" (?=--\w)", options)[1:]}
    assert list(entries) == ["--help", *HELP_FLAGS[command]]
    for flag, default in HELP_FLAGS[command].items():
        printed = re.findall(r"\(default ([^)]*)\)", entries[flag])
        assert printed == ([] if default is None else [str(default)]), flag
