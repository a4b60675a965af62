"""Command-line behavior: artifact chains, manifests, config layering,
determinism, and failure exit codes.

main() is driven in-process with argv lists; every command's artifacts
land in per-test directories.
"""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecgarr import cli, experiment
from ecgarr.cli import main
from ecgarr.dsp import SignalTooShortError
from ecgarr.experiment import SWEEP_FRACTION_BITS, PipelineConfig
from ecgarr.features import WINDOW_HALF_WIDTH, load_features, save_features
from ecgarr.fixedpoint import QFormat
from ecgarr.mlp import init_model, load_model, predict_batch, quantize_model, save_model
from ecgarr.selflearn import NoStableRhythmError
from wfdb_fixtures import DROPPED_BEATS, classifier_record, dropout_record, write_record_files


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
# start-up


def _run_python(*args, check=True):
    """A fresh interpreter with this package importable, run on args."""
    src = str(Path(experiment.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=check)


def _cli_import_prints(code):
    """Standard output of code run after a fresh ``import ecgarr.cli``."""
    return _run_python("-c", "import ecgarr.cli; " + code).stdout


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy alone took about 0.3 s
    # and 23 MB of every command's start-up
    assert _cli_import_prints(
        "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    ) == "[]\n"


def test_cli_import_builds_no_lookup_table():
    # the first fixed model of a format builds its activation table, so
    # start-up builds none
    assert _cli_import_prints("from ecgarr.activation import _lookup_table; "
                              "print(_lookup_table.cache_info().currsize)") == "0\n"


# ---------------------------------------------------------------------------
# the documented one-liner


def test_activation_error_prints_claim(capsys):
    assert main(["activation-error"]) == 0
    out = capsys.readouterr().out
    assert out == "max error 0.03788 at x = 0.5\n"


def test_activation_error_coarse_grid(capsys):
    assert main(["activation-error", "--grid-step", "0.001"]) == 0
    assert "at x = 0.5" in capsys.readouterr().out


class _GridBuilt(Exception):
    pass


@pytest.mark.parametrize("via_config", [False, True])
def test_grid_step_below_a_millionth_is_usage_error(tmp_path, capsys, monkeypatch, via_config):
    # the error curve takes about 50 bytes a grid point, so 1e-7 would ask
    # for about 6 GB; no grid is ever built here
    def no_grid(*args, **kwargs):
        raise _GridBuilt

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    cfg = tmp_path / "grid.ini"
    cfg.write_text("[activation-error]\ngrid_step = 1e-7\n")
    argv = (["--config", str(cfg), "activation-error"] if via_config
            else ["activation-error", "--grid-step", "1e-7"])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config value grid_step = 1e-07" if via_config
                          else "error: --grid-step 1e-07")
    assert "in [1e-6, 1]" in err
    with pytest.raises(_GridBuilt):  # the bound itself is accepted
        main(["activation-error", "--grid-step", "1e-6"])


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
    signal_lines = Path(ingest_dir, "recA-signal.txt").read_text().splitlines()
    ann_lines = Path(ingest_dir, "recA-annotations.txt").read_text().splitlines()
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
    rows = Path(features_path).read_text().splitlines()
    assert rows[0].startswith("record,r_index,f00")
    assert len(rows) == 39  # 38 interior beats + header

    train_dir = str(tmp_path / "train")
    assert main(["train", "--features", features_path, "--seed", "3",
                 "--max-epochs", "150", "--out-dir", train_dir]) == 0
    model_path = os.path.join(train_dir, "model.txt")
    history = Path(train_dir, "history.txt").read_text().splitlines()
    assert history and float(history[-1]) < float(history[0])

    infer_dir = str(tmp_path / "infer")
    assert main(["infer", "--features", features_path, "--model", model_path,
                 "--out-dir", infer_dir]) == 0
    verdict_lines = Path(infer_dir, "verdicts.txt").read_text().splitlines()
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
    fixed_lines = Path(out, "verdicts.txt").read_text().splitlines()[1:]
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
           Path(out, "verdicts.txt").read_text().splitlines()[1:]]
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

# valid Q formats whose accumulators on the net's layer sizes need more
# than the 53 bits of the fixed-point kernel; infer reads its model for
# those, never its features
OVERFLOWS = [["infer", "--total-bits", "40", "--fraction-bits", "20"],
             ["infer", "--total-bits", "31"],
             ["evaluate", "--classifier", "fixed", "--total-bits", "40", "--fraction-bits", "20"],
             ["evaluate", "--classifier", "fixed", "--total-bits", "31"],
             ["evaluate", "--classifier", "fixed", "--hidden", "65535"],
             ["sweep-fraction-bits", "--total-bits", "40", "--fraction-bits-max", "20"],
             ["evaluate", "--classifier", "fixed", "--total-bits", "26"],
             ["evaluate", "--classifier", "fixed", "--hidden", "127"],
             ["infer", "--total-bits", "26", "--fraction-bits", "12"],
             ["sweep-fraction-bits", "--total-bits", "26"]]

# layer sizes and formats past that rule, in modes that never quantize:
# no accumulator is checked, and the run goes on to look for its records
UNQUANTIZED = [["evaluate", "--classifier", "pla", "--hidden", "65535"],
               ["evaluate", "--classifier", "exact", "--hidden", "65535"],
               ["evaluate", "--classifier", "self-learner", "--total-bits", "31"],
               ["evaluate", "--classifier", "pla", "--hidden", "127"]]


@pytest.mark.parametrize("flags", [["infer", *f] for f in BAD_FORMATS]
                         + [["evaluate", "--classifier", c, *f]
                            for c in ("fixed", "pla") for f in BAD_FORMATS]
                         # shorter than the 10 PCA components
                         + [["features", "--window", str(w)] for w in (3, 5, 7, 9)]
                         + [[c, "--" + k.replace("_", "-"), v] for c, k, v in BAD_VALUES]
                         # a config line, then the command whose section holds it
                         + [["--config", f"{k} = {v}", c] for c, k, v in
                            [*BAD_VALUES, ("evaluate", "classifier", "bogus")]]
                         + OVERFLOWS + UNQUANTIZED)
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
    rc = main([*argv, "--out-dir", out])
    err = capsys.readouterr().err
    assert not os.path.exists(out)
    if flags in UNQUANTIZED:
        assert rc == 1
        assert err == f"error: missing record files: {missing}, {missing[:-4]}.atr\n"
        return
    assert rc == 2
    if flags[0] == "--config":
        assert err.startswith(f"error: config value {key} = ")
    elif flags in OVERFLOWS:
        assert err.startswith("error: --total-bits ") and "--fraction-bits" in err
        hidden = flags[flags.index("--hidden") + 1] if "--hidden" in flags else "6"
        assert "past the 53 bits" in err and f"(12, {hidden}, 2)" in err
    elif "--window" in flags:
        assert err.startswith("error: --window ") and "PCA" in err
    elif "--total-bits" in flags or "--fraction-bits" in flags:
        assert err.startswith("error: --total-bits ") and "--fraction-bits" in err
    else:
        assert err.startswith(f"error: {flags[1]} ")


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
    first, second = (Path(o, "model.txt").read_bytes() for o in outs)
    assert first == second
    assert (read_manifest(outs[0]) == read_manifest(outs[1]))


@pytest.mark.parametrize("column, text, message", [
    (1, "2.5", "r_index '2.5' is not an integer"),
    (7, "abc", "feature 'abc' is not a finite number"),
    (14, "2", "label '2' is not 0 or 1"),
    (14, "normal", "label 'normal' is not 0 or 1"),
])
def test_train_names_the_line_of_a_bad_table_value(records, tmp_path, capsys,
                                                   column, text, message):
    # once only the conversion's text, such as "invalid literal for int()"
    feat_dir = tmp_path / "f"
    main(["features", "--record", records["a"], "--peaks-from-annotations",
          "--out-dir", str(feat_dir)])
    path = feat_dir / "features.txt"
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[column] = text
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--features", str(path), "--seed", "7",
                 "--out-dir", str(tmp_path / "t")]) == 1
    assert capsys.readouterr().err == f"error: {path}: line 3: {message}\n"


# ---------------------------------------------------------------------------
# rhythm monitor command


LOG_HEADER = ["record", "sample_index", "kind", "t_rr", "st_rr"]


def anomaly_rows(out):
    """The rows below the header of a selflearn run's anomalies.csv, as text fields."""
    with open(os.path.join(out, "anomalies.csv"), newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == LOG_HEADER
    return rows


def test_selflearn_dropout_record(records, tmp_path, capsys):
    out = str(tmp_path / "sl")
    assert main(["selflearn", "--record", records["drop"],
                 "--tolerance", "0.15", "--out-dir", out]) == 0
    rows = anomaly_rows(out)
    assert [kind for _, _, kind, _, _ in rows] == ["missing_beat", "missing_beat"]
    # flagged at the last sound beat + ceil(345 * 1.15) samples
    expected = {400 + 345 * (k - 1) + 397 for k in DROPPED_BEATS}
    assert {int(index) for _, index, _, _, _ in rows} == expected
    assert all(rid == "recC" for rid, _, _, _, _ in rows)
    assert "2 anomalies" in capsys.readouterr().out


def test_selflearn_annotation_peaks_sees_steady_rhythm(records, tmp_path):
    # annotations mark the dropped beats too, so the interval stream is
    # perfectly regular from this vantage point
    out = str(tmp_path / "sl-ann")
    assert main(["selflearn", "--record", records["drop"],
                 "--peaks-from-annotations", "--out-dir", out]) == 0
    assert anomaly_rows(out) == []


# ---------------------------------------------------------------------------
# orchestration commands


def test_evaluate_command(records, tmp_path, capsys):
    out = str(tmp_path / "eval")
    assert main(["evaluate", "--record", records["a"], "--record", records["b"],
                 "--classifier", "fixed", "--seed", "3",
                 "--max-epochs", "150", "--out-dir", out]) == 0
    report = Path(out, "report.txt").read_text()
    assert report == capsys.readouterr().out
    assert "records 2" in report
    assert "-- pooled" in report
    assert "accuracy 1.000000" in report
    assert "config.classifier fixed" in report
    manifest = read_manifest(out)
    assert manifest["config"]["seed"] == 3
    assert len(manifest["inputs"]) == 6  # .hea/.dat/.atr per record


@pytest.mark.parametrize("classifier", ["pla", "self-learner"])
def test_evaluate_on_the_pool_writes_the_serial_report(records, tmp_path, monkeypatch,
                                                       pool_workers, classifier):
    # three records on three workers against one record loaded at a time
    third = classifier_record(tmp_path, "recD", seed=2)
    argv = ["evaluate", "--record", records["a"], "--record", records["b"],
            "--record", third, "--classifier", classifier, "--detector", "uni-dwt",
            "--seed", "3", "--max-epochs", "50"]
    pool_workers(3)
    assert main([*argv, "--out-dir", str(tmp_path / "pool")]) == 0
    monkeypatch.setattr(experiment, "map_records", lambda load, paths: list(map(load, paths)))
    assert main([*argv, "--out-dir", str(tmp_path / "serial")]) == 0
    report = (tmp_path / "pool" / "report.txt").read_bytes()
    assert report.startswith(b"records 3\n")
    assert report == (tmp_path / "serial" / "report.txt").read_bytes()


def test_evaluate_with_a_bad_second_record_is_an_error_line(records, tmp_path, pool_workers,
                                                            capsys):
    pool_workers(2)
    bad = classifier_record(tmp_path, "recBad", seed=2)
    dat = tmp_path / "recBad.dat"
    dat.write_bytes(dat.read_bytes()[:-100])
    capsys.readouterr()
    rc = main(["evaluate", "--record", records["a"], "--record", bad,
               "--classifier", "self-learner", "--detector", "uni-dwt",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(dat))}: buffer truncated at byte \d+: "
                        r"\d+ samples need \d+ bytes\n", err)


# a record the detector cannot run on, and one too short to learn a rhythm
RECORD_FAULTS = {
    "too few samples": (lambda d: write_record_files(d, "recBad", 360, [0] * 10, [(5, "N")]),
                        "uni-dwt", SignalTooShortError,
                        "signal of 10 samples too short for 4 levels (needs at least 16)"),
    "three beats": (lambda d: classifier_record(d, "recBad", n_beats=3, seed=2), "ann",
                    NoStableRhythmError, "need at least 5 peaks to learn a rhythm, got 3"),
}


@pytest.mark.parametrize("case", sorted(RECORD_FAULTS))
def test_a_detector_or_monitor_failure_names_its_record(records, tmp_path, capsys, case):
    # a two-record run once printed the fault alone, with no record to find it in
    make, detector, kind, message = RECORD_FAULTS[case]
    paths = (records["a"], make(tmp_path))
    with pytest.raises(kind, match=f"^{re.escape(f'record recBad: {message}')}$"):
        experiment.run_experiment(PipelineConfig(record_paths=paths, detector=detector,
                                                 classifier="self-learner"))
    capsys.readouterr()
    assert main(["evaluate", "--record", paths[0], "--record", paths[1],
                 "--classifier", "self-learner", "--detector", detector,
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: record recBad: {message}\n"
    assert not (tmp_path / "o").exists()


def test_evaluate_self_learner_needs_no_seed(records, tmp_path, capsys):
    out = str(tmp_path / "eval-sl")
    assert main(["evaluate", "--record", records["drop"],
                 "--classifier", "self-learner", "--out-dir", out]) == 0
    report = Path(out, "report.txt").read_text()
    assert "config.split full-record" in report
    capsys.readouterr()


def test_sweep_command(records, tmp_path, capsys):
    out = str(tmp_path / "sweep")
    assert main(["sweep-fraction-bits", "--record", records["a"],
                 "--record", records["b"], "--seed", "3", "--max-epochs", "150",
                 "--fraction-bits-min", "11", "--fraction-bits-max", "13",
                 "--out-dir", out]) == 0
    text = Path(out, "sweep.txt").read_text()
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
    models = [Path(o, "model.txt").read_bytes() for o in (out1, out2)]
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


@pytest.mark.parametrize("command", ["ingest", "detect", "selflearn"])
def test_a_one_record_command_rejects_a_second_record(records, tmp_path, capsys, command):
    # a second --record once ran the command on it alone, and exited 0
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--record", records["a"], "--record", records["b"],
              "--out-dir", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"ecgarr {command}: error: --record given twice; this command takes one\n")
    assert not out.exists()
    # one flag still wins over the config's one record
    cfg = tmp_path / "one.ini"
    cfg.write_text(f"[{command}]\nrecord = {records['a']}\n")
    assert main(["--config", str(cfg), command, "--record", records["drop"],
                 "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out.startswith("recC: ")


@pytest.mark.parametrize("command, flag", [
    ("selflearn", "--peaks"), ("features", "--peaks"), ("train", "--features"),
    ("infer", "--features"), ("infer", "--model"),
])
def test_a_one_file_flag_rejects_a_second_file(tmp_path, capsys, command, flag):
    # a second copy once won, and the manifest hashed that file alone;
    # the flags are checked before any file is read
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, str(tmp_path / "one.txt"), flag, str(tmp_path / "two.txt"),
              "--out-dir", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"ecgarr {command}: error: {flag} given twice; this command takes one\n")
    assert not out.exists()


def test_missing_record_file(tmp_path, capsys):
    rc = main(["detect", "--record", str(tmp_path / "ghost.hea"),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("keep_lines", [1, 4])
def test_infer_truncated_model_is_an_error_line(records, tmp_path, capsys, keep_lines):
    # a model file cut after its magic line, or after its output_activation line
    features_path, model_path = _trained_features_and_model(records, tmp_path)
    cut = tmp_path / "cut.txt"
    cut.write_text("".join(Path(model_path).read_text().splitlines(keepends=True)[:keep_lines]))
    capsys.readouterr()
    rc = main(["infer", "--features", features_path, "--model", str(cut),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {cut}: the file ends before its ")


def test_infer_model_past_the_accumulator_rule_is_an_error_line(tmp_path, capsys):
    # a Q24.12 model file relabelled Q26.12: its raw weights parse, but its
    # accumulators on 12-6-2 would need 54 bits
    saved = tmp_path / "q24.txt"
    save_model(saved, quantize_model(init_model(seed=0)))
    text = saved.read_text()
    assert "\nmode fixed 24 12\n" in text
    wide = tmp_path / "q26.txt"
    wide.write_text(text.replace("\nmode fixed 24 12\n", "\nmode fixed 26 12\n"))
    rc = main(["infer", "--features", str(tmp_path / "missing.txt"), "--model", str(wide),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {wide}: QFormat(total_bits=26, fraction_bits=12) ")
    assert "need 54 bits for layer sizes (12, 6, 2), past the 53 bits" in err


def test_features_without_annotations_fails_before_reading(records, tmp_path, capsys):
    # the labels come from the .atr; without it no record is read
    bare = classifier_record(tmp_path, "bare", seed=2)
    (tmp_path / "bare.atr").unlink()
    rc = main(["features", "--record", records["a"], "--record", bare,
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: missing record files: {tmp_path / 'bare.atr'}\n"


def test_detect_and_selflearn_read_a_record_without_annotations(tmp_path, capsys):
    # one record, no labels: neither command needs the .atr
    bare = classifier_record(tmp_path, "bare", seed=2)
    (tmp_path / "bare.atr").unlink()
    out = tmp_path / "detect"
    assert main(["detect", "--record", bare, "--out-dir", str(out)]) == 0
    assert np.loadtxt(out / "bare-peaks.txt", dtype=int).size == 40
    assert set(read_manifest(out)["inputs"]) == {bare, str(tmp_path / "bare.dat")}
    assert main(["selflearn", "--record", bare, "--out-dir", str(tmp_path / "sl")]) == 0
    assert capsys.readouterr().out.startswith("bare: 40 peaks\nbare: 0 anomalies")


def test_annotation_peaks_take_their_own_labels(records, tmp_path, monkeypatch, capsys):
    # an annotated beat is labelled by its own symbol, never matched to itself
    def no_matching(*args, **kwargs):
        raise AssertionError("annotation peaks went through beat matching")

    monkeypatch.setattr(experiment, "match_beats", no_matching)
    out = tmp_path / "f"
    assert main(["features", "--record", records["a"], "--peaks-from-annotations",
                 "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out == "38 beats from 1 record(s)\n"
    labels = [row.label for row in load_features(out / "features.txt")]
    assert "0" in labels and "1" in labels


def test_manifest_hashes_the_sample_file_the_header_names(tmp_path):
    # r1.hea names samples_r1.dat; an r1.dat beside it is never read
    header = Path(classifier_record(tmp_path, "r1", seed=0))
    header.write_text(header.read_text().replace("r1.dat", "samples_r1.dat"))
    (tmp_path / "r1.dat").rename(tmp_path / "samples_r1.dat")
    (tmp_path / "r1.dat").write_bytes(b"stale")
    out = tmp_path / "o"
    assert main(["detect", "--record", str(header), "--out-dir", str(out)]) == 0
    read = [str(header), str(tmp_path / "samples_r1.dat"), str(tmp_path / "r1.atr")]
    assert read_manifest(out)["inputs"] == {p: sha256(p) for p in read}


@pytest.mark.parametrize("argv", [["detect"], ["evaluate", "--classifier", "self-learner"]])
def test_an_infinite_sampling_frequency_is_one_error_line(tmp_path, capsys, argv):
    # detect once died in an OverflowError traceback; evaluate ran and exited 0
    header = Path(classifier_record(tmp_path, "r1", seed=0))
    record_line, rest = header.read_text().split("\n", 1)
    fields = record_line.split()
    fields[2] = "inf"
    header.write_text(" ".join(fields) + "\n" + rest)
    out = tmp_path / "o"
    assert main([*argv, "--record", str(header), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: {header}: line 1: sampling frequency 'inf' is not a finite number\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "infer"])
def test_an_empty_feature_table_is_one_error_line(tmp_path, capsys, command):
    # a header and no rows once failed in np.stack: "need at least one array to stack"
    table = tmp_path / "features.txt"
    save_features(table, [])
    model = tmp_path / "model.txt"
    save_model(model, init_model(seed=0))
    out = tmp_path / "o"
    argv = [command, "--features", str(table), "--out-dir", str(out)]
    argv += ["--model", str(model)] if command == "infer" else ["--seed", "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {table}: no beats\n"
    assert not out.exists()


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


def test_one_peak_file_for_several_records_is_usage_error(records, tmp_path, capsys):
    # one detect artifact would label every record from the first one's
    # peaks; rejected before any record is read
    peaks = tmp_path / "peaks.txt"
    peaks.write_text("150\n450\n750\n")
    out = tmp_path / "o"
    argv = ["features", "--record", str(tmp_path / "ghost.hea"), "--record", records["b"],
            "--peaks", str(peaks), "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--peaks" in err and "--record" in err
    cfg = tmp_path / "records.ini"
    cfg.write_text(f"[features]\nrecords = {records['a']} {records['b']}\n")
    assert main(["--config", str(cfg), "features", "--peaks", str(peaks),
                 "--out-dir", str(out)]) == 2
    assert "--peaks" in capsys.readouterr().err
    assert not out.exists()


def test_no_stable_rhythm_is_an_error_line(records, tmp_path, capsys):
    # three peaks give two intervals, too few to learn a rhythm from
    few = tmp_path / "few.txt"
    few.write_text("150\n450\n750\n")
    out = tmp_path / "o"
    rc = main(["selflearn", "--record", records["a"], "--peaks", str(few),
               "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["selflearn", "features"])
@pytest.mark.parametrize("outside", [99999999, -500])
def test_peaks_outside_the_record_are_rejected(records, tmp_path, capsys, command,
                                               outside):
    peaks = tmp_path / "peaks.txt"
    peaks.write_text("".join(f"{p}\n" for p in sorted([150, 450, 750, 1050, outside])))
    rc = main([command, "--record", records["a"], "--peaks", str(peaks),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (f"error: {peaks}: peak {outside} is outside record recA's "
                   "12000 samples\n")


@pytest.mark.parametrize("command", ["selflearn", "features"])
def test_an_empty_peaks_file_is_one_error_line(records, tmp_path, command):
    # in a fresh process, where numpy's "input contained no data" warning
    # would reach stderr ahead of the error line
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    done = _run_python("-m", "ecgarr.cli", command, "--record", records["a"],
                       "--peaks", str(empty), "--out-dir", str(tmp_path / "o"), check=False)
    assert done.returncode == 1
    assert done.stderr == f"error: {empty}: no peaks\n"
    assert not (tmp_path / "o").exists()


def _peaks_file_error(records, tmp_path, capsys, command, text):
    """The error a command prints for a peaks file holding text."""
    peaks = tmp_path / "peaks.txt"
    peaks.write_text(text)
    out = tmp_path / "o"
    assert main([command, "--record", records["a"], "--peaks", str(peaks),
                 "--out-dir", str(out)]) == 1
    assert not out.exists()
    return capsys.readouterr().err.replace(str(peaks), "PEAKS")


@pytest.mark.parametrize("command", ["selflearn", "features"])
def test_a_peak_that_is_no_integer_names_its_line(records, tmp_path, capsys, command):
    # lines counted from 1, comment and blank lines among them
    err = _peaks_file_error(records, tmp_path, capsys, command,
                            "# from detect\n150\n\n450.5\n750\n")
    assert err == "error: PEAKS: line 4: peak '450.5' is not an integer\n"


@pytest.mark.parametrize("command", ["selflearn", "features"])
def test_a_peak_not_after_the_one_before_names_its_line(records, tmp_path, capsys, command):
    err = _peaks_file_error(records, tmp_path, capsys, command, "150\n750\n450\n1050\n")
    assert err == "error: PEAKS: line 3: peak 450 is not after 750\n"


@pytest.mark.parametrize("command", ["selflearn", "features"])
def test_a_line_of_two_peaks_names_its_line(records, tmp_path, capsys, command):
    # not read as two peaks
    err = _peaks_file_error(records, tmp_path, capsys, command, "150 450\n")
    assert err == "error: PEAKS: line 1: peak '150 450' is not an integer\n"


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
