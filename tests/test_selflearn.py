"""Rhythm self-learner: initialization, beat checks, timeout monitoring."""

import csv
import math

import numpy as np
import pytest

from ecgarr.dsp import PeakTrain
from ecgarr.selflearn import (
    AnomalyEvent,
    NoStableRhythmError,
    SelfLearnerState,
    check_beat,
    epsilon_for,
    find_stable_window,
    monitor,
    monitoring_state,
    run_self_learner,
    save_anomaly_log,
    timeout_samples,
    update,
)


# ---------------------------------------------------------------------------
# initialization


def test_initialize_four_equal_intervals():
    assert find_stable_window([345, 345, 345, 345])[1] == 345.0


def test_initialize_slides_past_outlier():
    start, st = find_stable_window([345, 600, 345, 344, 346, 345])
    assert start == 2
    assert st == 345.0


def test_initialize_exhausted_stream_errors():
    with pytest.raises(NoStableRhythmError):
        find_stable_window([100, 200, 300])
    with pytest.raises(NoStableRhythmError):
        find_stable_window([100, 200, 300, 400, 500])
    with pytest.raises(NoStableRhythmError):
        find_stable_window([])


def test_initialize_boundary_deviation_is_stable():
    # deviations of exactly tolerance*mean still count as agreement
    assert find_stable_window([85, 100, 100, 115], tolerance_fraction=0.15)[1] == 100.0


def test_initialize_accepts_generators():
    assert find_stable_window(iter([10.0, 10.0, 10.0, 10.0]))[1] == 10.0


def test_initialize_rejects_nonpositive_intervals():
    with pytest.raises(ValueError, match="positive"):
        find_stable_window([345, -10, 345, 345, 345])
    with pytest.raises(ValueError, match="positive"):
        find_stable_window([0, 345, 345, 345, 345])


# ---------------------------------------------------------------------------
# the decision rule


def test_epsilon_example_in_milliseconds():
    assert epsilon_for(120, 0.15) == 18.0
    assert check_beat(120, 135, epsilon_for(120, 0.15)) == 0


def test_check_beat_examples():
    eps = epsilon_for(345)
    assert eps == pytest.approx(51.75)
    assert check_beat(345, 345, eps) == 0
    assert check_beat(345, 400, eps) == 1   # |55| > 51.75
    assert check_beat(345, 250, eps) == 1   # |95| > 51.75


def test_check_beat_boundary_passes():
    assert check_beat(100, 115, 15.0) == 0
    assert check_beat(100, 85, 15.0) == 0
    assert check_beat(100, 115.0001, 15.0) == 1


def test_check_beat_scale_invariant():
    rng = np.random.default_rng(3)
    for _ in range(200):
        st = rng.uniform(50, 1000)
        t = rng.uniform(50, 1000)
        eps = rng.uniform(1, 100)
        base = check_beat(st, t, eps)
        for c in (2.0, 0.5, 4.0, 0.25):  # exact float scalings
            assert check_beat(c * st, c * t, c * eps) == base


def test_update_examples():
    assert update(0.70, 0.72) == pytest.approx(0.71, rel=1e-15)
    assert update(345, 345) == 345.0


def test_update_halves_the_gap_geometrically():
    st = 857.0
    for n in range(1, 13):
        st = update(st, 345.0)
        assert st - 345.0 == 512.0 / 2 ** n


# ---------------------------------------------------------------------------
# timeouts


def test_timeout_binary_rounding_edge():
    # 345 * 1.15 lands just below 396.75 in binary, ceil still gives 397
    assert 345 * 1.15 < 396.75
    assert timeout_samples(345, 0.15) == 397


def test_timeout_more_cases():
    assert timeout_samples(100, 0.15) == 115
    assert timeout_samples(10, 0.5) == 15
    assert timeout_samples(200.5, 0.15) == math.ceil(200.5 * 1.15)


def test_timeout_brackets_the_product():
    rng = np.random.default_rng(9)
    for _ in range(300):
        st = rng.uniform(10, 2000)
        tol = rng.uniform(0.01, 0.99)
        w = timeout_samples(st, tol)
        assert st * (1 + tol) <= w < st * (1 + tol) + 1


# ---------------------------------------------------------------------------
# monitoring


def test_monitor_unbroken_train_is_silent():
    peaks = np.arange(0, 345 * 20, 345)
    state = monitoring_state(345.0, anchor_index=0)
    events, final = monitor(peaks[1:], state)
    assert events == []
    assert final.st_rr == 345.0
    assert final.last_peak_index == int(peaks[-1])


def test_monitor_early_peak_flags_without_update():
    state = monitoring_state(345.0, anchor_index=0)
    events, final = monitor([250, 595], state)
    assert len(events) == 1
    ev = events[0]
    assert ev.kind == "interval_deviation"
    assert ev.sample_index == 250
    assert ev.observed == 250.0
    assert ev.st_rr == 345.0
    assert final.st_rr == 345.0  # deviant skipped, following normal is exact


def test_monitor_deviant_never_updates_st():
    state = monitoring_state(345.0, anchor_index=0)
    events, final = monitor([250], state)
    assert len(events) == 1
    assert final.st_rr == 345.0
    assert final.last_peak_index == 250


def test_monitor_late_arrival_inside_window_is_deviation():
    # deadline is ceil(345*1.15) = 397; arriving exactly then is within
    state = monitoring_state(345.0, anchor_index=0)
    events, _ = monitor([397], state)
    assert [e.kind for e in events] == ["interval_deviation"]
    assert events[0].observed == 397.0


def test_monitor_arrival_past_deadline_is_missing_beat():
    state = monitoring_state(345.0, anchor_index=0)
    events, final = monitor([398], state)
    assert [e.kind for e in events] == ["missing_beat"]
    assert events[0].sample_index == 397
    assert events[0].observed == 397.0
    assert final.last_peak_index == 398
    assert final.st_rr == 345.0


def test_monitor_reanchors_without_judging_bridge():
    state = monitoring_state(345.0, anchor_index=0)
    events, final = monitor([800, 1145], state)
    # one timeout for the long gap; the 800 -> 1145 interval is normal
    assert [e.kind for e in events] == ["missing_beat"]
    assert events[0].sample_index == 397
    assert final.st_rr == 345.0
    assert final.last_peak_index == 1145


def test_monitor_one_event_per_gap():
    # a gap of three periods still yields a single timeout event
    state = monitoring_state(345.0, anchor_index=0)
    events, _ = monitor([345 * 4], state)
    assert [e.kind for e in events] == ["missing_beat"]


def test_monitor_tracks_drifting_rhythm():
    state = monitoring_state(300.0, anchor_index=0)
    peaks = [310, 630, 960]  # intervals 310, 320, 330
    events, final = monitor(peaks, state)
    assert events == []
    st = 300.0
    for t in (310, 320, 330):
        st = (st + t) / 2
    assert final.st_rr == st


def test_monitor_requires_advancing_peaks():
    state = monitoring_state(345.0, anchor_index=500)
    with pytest.raises(ValueError, match="advance"):
        monitor([500], state)
    with pytest.raises(ValueError, match="advance"):
        monitor([499], state)


@pytest.mark.parametrize("bad", [1300.7, math.nan, math.inf])
def test_monitor_rejects_a_peak_that_is_not_an_integer(bad):
    state = monitoring_state(300.0, anchor_index=1000)
    with pytest.raises(ValueError, match=r"^peak index .+ is not an integer$"):
        monitor([bad], state)
    # an integral float is a peak index, and the state keeps a Python int
    events, final = monitor([1300.0], state)
    assert events == [] and final.last_peak_index == 1300
    assert type(final.last_peak_index) is int


def test_monitor_accepts_peak_train():
    train = PeakTrain(np.array([345, 690, 1035]), 500.0).r_indices
    events, final = monitor(train, monitoring_state(345.0, anchor_index=0))
    assert events == []
    assert final.st_rr == 345.0


# ---------------------------------------------------------------------------
# end-to-end runs


def test_run_deleted_peak_emits_single_missing_beat():
    full = list(range(0, 345 * 12, 345))
    del full[5]  # drop the beat at sample 1725
    events, final, _ = run_self_learner(full)
    assert len(events) == 1
    ev = events[0]
    assert ev.kind == "missing_beat"
    # learning ends at peak 1380; the timeout fires 397 samples later
    assert ev.sample_index == 1380 + 397
    assert ev.st_rr == 345.0
    assert final.st_rr == 345.0


def test_run_unbroken_train_is_silent():
    events, final, _ = run_self_learner(list(range(0, 345 * 12, 345)))
    assert events == []
    assert final.st_rr == 345.0


def test_run_slides_past_irregular_prefix():
    # a premature beat early on spoils the first windows, never judged
    peaks = [0, 150, 495, 840, 1185, 1530, 1875]
    events, final, anchor = run_self_learner(peaks)
    assert anchor == 5  # the window is intervals 1..4, closed by peak 5
    assert events == []
    assert final.st_rr == 345.0
    assert final.last_peak_index == 1875


def test_run_needs_five_peaks():
    with pytest.raises(NoStableRhythmError, match="5 peaks"):
        run_self_learner([0, 345, 690, 1035])


def test_run_rejects_a_peak_that_is_not_an_integer():
    peaks = np.arange(0, 345 * 8, 345, dtype=np.float64)
    assert run_self_learner(peaks) == run_self_learner(peaks.astype(np.int64))
    peaks[6] += 0.5
    peaks[7] = math.nan
    with pytest.raises(ValueError, match=r"^peak index 2070\.5 is not an integer$"):
        run_self_learner(peaks)


def test_run_accepts_peak_train():
    train = PeakTrain(np.arange(0, 345 * 8, 345), 500.0).r_indices
    events, final, _ = run_self_learner(train)
    assert events == []
    assert final == SelfLearnerState(345.0, 0.15, 345 * 7)


# ---------------------------------------------------------------------------
# state and event validation


def test_state_validation():
    with pytest.raises(ValueError, match="tolerance"):
        SelfLearnerState(345.0, tolerance_fraction=0.0, last_peak_index=0)
    with pytest.raises(ValueError, match="tolerance"):
        SelfLearnerState(345.0, tolerance_fraction=1.0, last_peak_index=0)
    for st_rr in (0.0, -345.0, float("nan")):
        with pytest.raises(ValueError, match="positive learned"):
            SelfLearnerState(st_rr, 0.15, 0)
    with pytest.raises(ValueError, match="positive learned"):
        monitoring_state(0.0, anchor_index=0)
    # monitoring reads all three, so none has a default
    with pytest.raises(TypeError, match="last_peak_index"):
        SelfLearnerState(345.0, 0.15)


def test_event_validation():
    with pytest.raises(ValueError, match="kind"):
        AnomalyEvent(10, "weird", 345.0, 345.0)
    with pytest.raises(ValueError, match="nonnegative"):
        AnomalyEvent(-1, "missing_beat", 397.0, 345.0)
    with pytest.raises(ValueError, match="positive"):
        AnomalyEvent(10, "missing_beat", 0.0, 345.0)


# ---------------------------------------------------------------------------
# anomaly log files


def log_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_anomaly_log_round_trip(tmp_path):
    events = [
        AnomalyEvent(1777, "missing_beat", 397.0, 345.0),
        AnomalyEvent(2500, "interval_deviation", 250.0, 345.5),
    ]
    path = tmp_path / "anomalies.csv"
    save_anomaly_log(path, "rec-x", events)
    header, *rows = log_rows(path)
    assert header == ["record", "sample_index", "kind", "t_rr", "st_rr"]
    assert rows == [["rec-x", "1777", "missing_beat", "397", "345"],
                    ["rec-x", "2500", "interval_deviation", "250", "345.5"]]
    assert [AnomalyEvent(int(i), kind, float(t), float(st))
            for _, i, kind, t, st in rows] == events


def test_anomaly_log_empty(tmp_path):
    path = tmp_path / "empty.csv"
    save_anomaly_log(path, "rec-y", [])
    assert log_rows(path) == [["record", "sample_index", "kind", "t_rr", "st_rr"]]
