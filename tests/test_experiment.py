"""End-to-end pipeline runs over small synthetic records.

Two alternating normal/anomalous records drive the classifier paths and
the quantization sweep; a pulse train with two silently dropped beats
drives the rhythm-monitor path.  Record files are real header/sample/
annotation triples written through the same writer the readers are
tested against.  Seeded random beat trains check the monitor's verdicts
against the per-beat loop in ``verdict_oracle.py``.
"""

import multiprocessing
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ecgarr import experiment, selflearn
from ecgarr.experiment import (
    DETECTOR_MODES,
    PipelineConfig,
    _self_learner_verdicts,
    render_experiment,
    render_sweep,
    run_experiment,
    sweep_fraction_bits,
)
from ecgarr.selflearn import NoStableRhythmError, find_stable_window, run_self_learner
from ecgarr.wfdb_io import read_record
from verdict_oracle import verdict_rows
from wfdb_fixtures import (
    DROPPED_BEATS,
    add_pulse,
    classifier_record,
    dropout_record,
    write_record_files,
)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    d = tmp_path_factory.mktemp("records")
    return {
        "a": classifier_record(d, "recA", seed=0),
        "b": classifier_record(d, "recB", seed=1),
        "drop": dropout_record(d, "recC"),
        "dir": d,
    }


# ---------------------------------------------------------------------------
# classifier paths


@pytest.mark.parametrize("classifier", ["pla", "exact", "fixed"])
def test_classifier_separates_morphologies(records, classifier):
    cfg = PipelineConfig(record_paths=(records["a"], records["b"]),
                         classifier=classifier, detector="ann",
                         max_epochs=150, seed=3)
    res = run_experiment(cfg)
    assert res.pooled.accuracy == 1.0
    assert res.pooled.sensitivity == 1.0
    assert res.pooled.specificity == 1.0
    # 40 beats per record minus the two edge beats, half held out
    assert res.pooled.counts.total == 38
    assert len(res.per_record) == 2
    assert [rr.record_id for rr in res.per_record] == ["recA", "recB"]
    for rr in res.per_record:
        assert rr.report.accuracy == 1.0
    assert res.mse_history
    assert res.mse_history[-1] < res.mse_history[0]
    assert len(res.verdicts) == 38
    for record_id, r_index, true, pred in res.verdicts:
        assert record_id in ("recA", "recB")
        assert r_index > 0
        assert true in (0, 1) and pred in (0, 1)


def test_uni_dwt_detector_feeds_classifier(records):
    cfg = PipelineConfig(record_paths=(records["a"], records["b"]),
                         classifier="pla", detector="uni-dwt",
                         max_epochs=150, seed=3)
    res = run_experiment(cfg)
    assert res.pooled.accuracy == 1.0
    # every detection matched an annotation, so totals equal the ann run
    assert res.pooled.counts.total == 38


def test_run_is_deterministic(records):
    cfg = PipelineConfig(record_paths=(records["a"], records["b"]),
                         classifier="fixed", detector="ann",
                         max_epochs=150, seed=3)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first.verdicts == second.verdicts
    assert render_experiment(first) == render_experiment(second)


def test_render_experiment_sections(records):
    cfg = PipelineConfig(record_paths=(records["a"],), classifier="pla",
                         detector="ann", max_epochs=150, seed=3)
    text = render_experiment(run_experiment(cfg))
    assert text.startswith("records 1\n")
    assert "-- record recA\n" in text
    assert "-- pooled\n" in text
    assert "training epochs" in text
    assert "config.split chrono-half" in text
    assert "config.classifier pla" in text


def test_fixed_mode_reports_format(records):
    cfg = PipelineConfig(record_paths=(records["a"],), classifier="fixed",
                         detector="ann", max_epochs=150, seed=3,
                         total_bits=24, fraction_bits=12)
    res = run_experiment(cfg)
    assert res.pooled.config["total_bits"] == 24
    assert res.pooled.config["fraction_bits"] == 12
    text = render_experiment(res)
    assert "config.fraction_bits 12" in text


def test_same_named_records_are_each_scored(tmp_path):
    # two records called "rec" in different directories: each test half
    # is scored once, in record order
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    first = classifier_record(tmp_path / "one", "rec", n_beats=40, seed=0)
    second = classifier_record(tmp_path / "two", "rec", n_beats=62, seed=1)

    def config(*paths):
        return PipelineConfig(record_paths=paths, classifier="pla",
                              detector="ann", max_epochs=20, seed=3)

    alone = [run_experiment(config(p)).pooled.counts.total for p in (first, second)]
    both = run_experiment(config(first, second))
    assert [rr.report.counts.total for rr in both.per_record] == alone
    assert both.pooled.counts.total == sum(alone)
    assert len(both.verdicts) == sum(alone)
    assert {p.total for p in sweep_fraction_bits(config(first, second), (12,))} == {sum(alone)}


# ---------------------------------------------------------------------------
# rhythm-monitor path


def test_self_learner_flags_dropped_beats(records):
    cfg = PipelineConfig(record_paths=(records["drop"],),
                         classifier="self-learner", detector="uni-dwt")
    res = run_experiment(cfg)
    p = res.pooled
    assert (p.accuracy, p.sensitivity, p.specificity) == (1.0, 1.0, 1.0)
    # 40 annotations, 5 consumed by the learning window, 2 dropped beats
    assert (p.counts.tp, p.counts.tn, p.counts.fp, p.counts.fn) == (2, 33, 0, 0)
    flagged = {idx for _, idx, true, pred in res.verdicts if pred == 1}
    assert flagged == {400 + 345 * k for k in DROPPED_BEATS}
    for _, idx, true, pred in res.verdicts:
        assert true == pred
    assert res.mse_history == ()
    assert "config.split full-record" in render_experiment(res)
    assert "config.tolerance 0.15" in render_experiment(res)


def test_self_learner_on_detected_beats_labels_no_peaks(records, monkeypatch):
    # the monitor judges the peak train against the annotations; only a
    # classifier's beat table needs each peak's label
    calls, label_peaks = [], experiment.label_peaks
    monkeypatch.setattr(experiment, "label_peaks",
                        lambda *args: calls.append(args) or label_peaks(*args))
    run_experiment(PipelineConfig(record_paths=(records["drop"],),
                                  classifier="self-learner", detector="uni-dwt"))
    assert calls == []


def test_peaks_take_the_label_of_the_annotation_they_were_paired_with():
    # two annotated beats on one sample, labelled apart: each peak takes
    # the label of the annotation match_beats paired it with, found by
    # position, not by sample index
    peaks, ann, labels = np.array([98, 102, 500]), np.array([100, 100, 500]), np.array([0, 1, 0])
    assert experiment.label_peaks(peaks, ann, labels, 360.0).tolist() == [0, 1, 0]
    matched = experiment.match_beats(peaks, ann, sampling_frequency=360.0)
    assert matched.pairs == ((98, 100), (102, 100), (500, 500))
    assert matched.prediction_of == (0, 1, 2)
    # a peak no annotation pairs with is -1, an annotation no peak pairs with is ignored
    assert experiment.label_peaks(np.array([100, 300]), ann, labels, 360.0).tolist() == [0, -1]
    assert experiment.label_peaks(np.array([], dtype=np.int64), ann, labels, 360.0).size == 0


def test_nothing_to_monitor_raises(tmp_path):
    # five annotated beats: the learning window takes them all
    beats = [200 + 345 * k for k in range(5)]
    sig = np.zeros(2000)
    for c in beats:
        add_pulse(sig, c, 18, 500.0)
    samples = np.clip(np.round(sig) + 1024, -2048, 2047).astype(int)
    five = write_record_files(tmp_path, "five", 360, samples.tolist(),
                              [(c, "N") for c in beats])
    cfg = PipelineConfig(record_paths=(five,), classifier="self-learner", detector="ann")
    with pytest.raises(ValueError, match="record five: nothing to monitor"):
        run_experiment(cfg)


def _random_train(rng):
    """(peaks, annotation indices, labels, tolerance) of a seeded beat
    train whose detected peaks drop beats, move early or late (some
    beyond the match window) and gain spurious ones."""
    n = int(rng.integers(3, 40))
    rr = rng.integers(200, 400) * (1 + rng.normal(0, rng.choice([0.01, 0.05, 0.3]), n))
    beats = np.round(rng.integers(20, 400) + np.cumsum(np.abs(rr))).astype(np.int64)
    peaks = beats[rng.random(n) >= rng.choice([0.0, 0.05, 0.2])]
    shift = int(rng.choice([0, 3, 25]))
    peaks = peaks + rng.integers(-shift, shift + 1, peaks.size)
    peaks = peaks + (rng.random(peaks.size) < rng.choice([0.0, 0.1])) * 60
    spurious = rng.integers(0, beats[-1] + 400, rng.integers(0, 4))
    peaks = np.unique(np.concatenate([peaks, spurious]))
    labels = (rng.random(n) < 0.3).astype(np.int64)
    if rng.random() < 0.1:  # the annotations stop early
        keep = int(rng.integers(0, 8))
        beats, labels = beats[:keep], labels[:keep]
    return peaks, beats, labels, float(rng.choice([0.1, 0.15, 0.25]))


def test_self_learner_verdicts_equal_the_per_beat_oracle():
    outcomes = Counter()
    for seed in range(1500):
        peaks, ann, labels, tol = _random_train(np.random.default_rng(seed))
        try:
            expected = verdict_rows(peaks, ann, labels, 360.0, tol)
        except NoStableRhythmError:
            with pytest.raises(NoStableRhythmError):
                _self_learner_verdicts("r", peaks, ann, labels, 360.0, tol)
            outcomes["no stable rhythm"] += 1
            continue
        if not expected:
            with pytest.raises(ValueError, match="record r: nothing to monitor"):
                _self_learner_verdicts("r", peaks, ann, labels, 360.0, tol)
            outcomes["nothing to monitor"] += 1
            continue
        got = _self_learner_verdicts("r", peaks, ann, labels, 360.0, tol)
        assert [a.dtype for a in got] == [np.int64] * 3
        assert list(zip(*(a.tolist() for a in got))) == expected, seed
        events, _, _ = run_self_learner(peaks, tolerance_fraction=tol)
        outcomes.update(ev.kind for ev in events)
        outcomes.update(f"flag {flag}" for _, _, flag in expected)
    assert min(outcomes[k] for k in ("no stable rhythm", "nothing to monitor",
                                     "missing_beat", "interval_deviation")) >= 50, outcomes
    assert outcomes["flag 1"] >= 1000 and outcomes["flag 0"] >= 1000, outcomes


def test_run_self_learner_anchor_closes_the_learning_window():
    anchors = 0
    for seed in range(1500):
        peaks, _, _, tol = _random_train(np.random.default_rng(seed))
        try:
            start, _ = find_stable_window(np.diff(peaks), tol)
        except NoStableRhythmError:
            continue
        _, _, anchor = run_self_learner(peaks, tolerance_fraction=tol)
        assert anchor == start + 4, seed
        anchors += 1
    assert anchors >= 1000


def test_self_learner_learns_each_record_once(records, monkeypatch):
    # the verdicts reuse run_self_learner's window; they once searched it again
    calls, search = [], selflearn.find_stable_window

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    for module in (selflearn, experiment):
        monkeypatch.setattr(module, "find_stable_window", counted)
    for detector in DETECTOR_MODES:
        calls.clear()
        run_experiment(PipelineConfig(record_paths=(records["drop"], records["a"]),
                                      classifier="self-learner", detector=detector))
        assert len(calls) == 2, detector


# ---------------------------------------------------------------------------
# quantization sweep


def test_sweep_fraction_bits(records):
    cfg = PipelineConfig(record_paths=(records["a"], records["b"]),
                         classifier="pla", detector="ann",
                         max_epochs=150, seed=3)
    points = sweep_fraction_bits(cfg, (6, 12, 14))
    assert [p.fraction_bits for p in points] == [6, 12, 14]
    for p in points:
        assert p.total == 38
        assert 0 <= p.disagreements <= p.total
        assert p.disagreement_fraction == p.disagreements / p.total
    # at the default working precision quantization must not flip votes
    by_f = {p.fraction_bits: p for p in points}
    assert by_f[12].disagreements == 0
    text = render_sweep(points)
    assert text.splitlines()[0] == "fraction_bits disagreements total fraction"
    assert f"12 {by_f[12].disagreements} 38 0.000000" in text
    assert render_sweep(sweep_fraction_bits(cfg, (6, 12, 14))) == text


def test_sweep_rejects_non_pla_reference(records):
    cfg = PipelineConfig(record_paths=(records["a"],),
                         classifier="self-learner")
    with pytest.raises(ValueError, match="piecewise-linear"):
        sweep_fraction_bits(cfg)


# ---------------------------------------------------------------------------
# validation and error paths


@pytest.mark.parametrize("late_first", [True, False])
def test_first_failing_record_in_argument_order_raises(tmp_path, pool_workers, late_first):
    # Records load on a pool.  "late" fails once its samples are decoded
    # (its annotation stream lost its terminator word), "early" at once
    # (its signal count is no number); either way round, the error is
    # that of the first record given.
    pool_workers(2)  # two workers on any host
    late = classifier_record(tmp_path, "late", seed=0)
    atr = tmp_path / "late.atr"
    atr.write_bytes(atr.read_bytes()[:-2])
    early = classifier_record(tmp_path, "early", seed=1)
    (tmp_path / "early.hea").write_text("early two 360 100\n")
    paths, message = (((late, early), "no terminator word") if late_first
                      else ((early, late), "line 1: signal count 'two' is not an integer"))
    for detector in ("ann", "uni-dwt"):
        with pytest.raises(ValueError, match=message):
            run_experiment(PipelineConfig(record_paths=paths, detector=detector))


def _exit_on_report(config, expected):
    sys.exit(0 if render_experiment(run_experiment(config)) == expected else 1)


def test_a_forked_child_loads_on_a_pool_of_its_own(records, pool_workers):
    # the parent's pool has started its workers; a child that took that
    # pool for its own would wait forever on workers it does not have
    pool_workers(2)
    cfg = PipelineConfig(record_paths=(records["drop"], records["drop"]),
                         classifier="self-learner")
    expected = render_experiment(run_experiment(cfg))
    child = multiprocessing.get_context("fork").Process(target=_exit_on_report,
                                                        args=(cfg, expected))
    child.start()
    child.join(timeout=60)
    if child.exitcode is None:
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_missing_files_listed(records, tmp_path):
    ghost = str(tmp_path / "nope.hea")
    cfg = PipelineConfig(record_paths=(records["a"], ghost), classifier="pla")
    with pytest.raises(FileNotFoundError) as err:
        run_experiment(cfg)
    message = str(err.value)
    assert ghost in message
    assert str(tmp_path / "nope.atr") in message
    assert "recA" not in message


def test_channel_out_of_range(records):
    cfg = PipelineConfig(record_paths=(records["a"],), channel=1,
                         classifier="pla")
    with pytest.raises(ValueError, match="channel 1 out of range"):
        run_experiment(cfg)
    for channel in (-1, 1):
        with pytest.raises(ValueError, match=f"^record recA: channel {channel} out of range "
                                             r"\(1 signals\)$"):
            read_record(records["a"], {0, channel})


def test_empty_test_half_raises(records, tmp_path):
    # two annotated beats leave no interior rows at all
    sig = np.zeros(2000)
    add_pulse(sig, 500, 18, 500.0)
    add_pulse(sig, 800, 18, 500.0)
    samples = np.clip(np.round(sig) + 1024, -2048, 2047).astype(int)
    tiny = write_record_files(tmp_path, "tiny", 360, samples.tolist(),
                              [(500, "N"), (800, "N")])
    cfg = PipelineConfig(record_paths=(records["a"], tiny), classifier="pla",
                         detector="ann", max_epochs=50, seed=3)
    with pytest.raises(ValueError, match="empty test half"):
        run_experiment(cfg)


def test_config_validation():
    with pytest.raises(ValueError, match="at least one record"):
        PipelineConfig(record_paths=())
    # one path is not a sequence of paths: a str once became its characters
    for one in ("recA.hea", b"recA.hea", Path("recA.hea")):
        with pytest.raises(ValueError, match="sequence of header paths, not the one path"):
            PipelineConfig(record_paths=one)
    assert PipelineConfig(record_paths=[Path("recA.hea")]).record_paths == ("recA.hea",)
    with pytest.raises(ValueError, match="detector"):
        PipelineConfig(record_paths=("x.hea",), detector="fft")
    with pytest.raises(ValueError, match="classifier"):
        PipelineConfig(record_paths=("x.hea",), classifier="svm")
    with pytest.raises(ValueError, match="channel"):
        PipelineConfig(record_paths=("x.hea",), channel=-1)
