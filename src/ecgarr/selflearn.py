"""Unsupervised rhythm monitor driven by R-R intervals.

The monitor learns a patient's nominal beat spacing from four stable
consecutive intervals, then flags beats whose spacing deviates from the
learned value by more than a tolerance, and raises a timeout when no
beat arrives inside the tolerated window at all.  Judged-normal beats
fold into the learned value by simple averaging; anomalous ones never
touch it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dsp import peak_indices

__all__ = [
    "AnomalyEvent",
    "NoStableRhythmError",
    "SelfLearnerState",
    "check_beat",
    "epsilon_for",
    "find_stable_window",
    "monitor",
    "monitoring_state",
    "run_self_learner",
    "save_anomaly_log",
    "timeout_samples",
    "update",
]

EVENT_KINDS = ("interval_deviation", "missing_beat")
TOLERANCE = 0.15  # default tolerance_fraction: a beat may deviate 15 % from st_rr


class NoStableRhythmError(ValueError):
    """No run of four consecutive intervals settled within tolerance."""


@dataclass(frozen=True)
class AnomalyEvent:
    sample_index: int
    kind: str
    observed: float   # the offending interval, or the elapsed count for timeouts
    st_rr: float      # learned characteristic at decision time

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.sample_index < 0:
            raise ValueError("event sample_index must be nonnegative")
        if self.observed <= 0 or self.st_rr <= 0:
            raise ValueError("intervals must be positive")


@dataclass(frozen=True)
class SelfLearnerState:
    """What monitoring reads: the learned interval, the tolerance, and
    the last peak, from which the next interval is measured."""

    st_rr: float
    tolerance_fraction: float
    last_peak_index: int

    def __post_init__(self):
        if not 0 < self.tolerance_fraction < 1:
            raise ValueError("tolerance_fraction must lie in (0, 1)")
        if not self.st_rr > 0:
            raise ValueError("monitoring needs a positive learned interval")


def monitoring_state(st_rr: float, anchor_index: int,
                     tolerance_fraction: float = TOLERANCE) -> SelfLearnerState:
    return SelfLearnerState(float(st_rr), tolerance_fraction, int(anchor_index))


def epsilon_for(st_rr: float, tolerance_fraction: float = TOLERANCE) -> float:
    """Absolute deviation tolerance for a learned interval."""
    return tolerance_fraction * st_rr


def timeout_samples(st_rr: float, tolerance_fraction: float = TOLERANCE) -> int:
    """How long to wait for the next peak before declaring one missing."""
    return math.ceil(st_rr * (1.0 + tolerance_fraction))


def check_beat(st_rr: float, t_rr: float, epsilon: float) -> int:
    """1 when the interval deviates from the learned one by more than
    epsilon, else 0.  A deviation of exactly epsilon still passes."""
    return 1 if abs(st_rr - t_rr) > epsilon else 0


def update(st_rr: float, t_rr: float) -> float:
    """Fold a judged-normal interval into the learned value."""
    return (st_rr + t_rr) / 2.0


def find_stable_window(intervals, tolerance_fraction: float = TOLERANCE):
    """First run of 4 consecutive intervals that agree with their mean.

    Agreement means every interval is within tolerance_fraction of the
    window mean (inclusive).  Returns (start offset, mean).  The window
    slides one interval at a time past unstable stretches.
    """
    vals = [float(t) for t in intervals]
    if any(t <= 0 for t in vals):
        raise ValueError("intervals must be positive")
    for start in range(len(vals) - 3):
        window = vals[start:start + 4]
        mean = sum(window) / 4.0
        if all(abs(t - mean) <= tolerance_fraction * mean for t in window):
            return start, mean
    raise NoStableRhythmError(
        f"no stable rhythm in {len(vals)} intervals at tolerance {tolerance_fraction}"
    )


def monitor(peaks, state: SelfLearnerState):
    """Judge each arriving peak against the learned interval.

    Returns (events, updated state).  A peak later than the timeout
    window yields one missing-beat event at the deadline sample; the
    late peak then becomes the new anchor and its bridging interval is
    not judged.  A peak inside the window is checked: deviants are
    flagged and do not update the learned value, normals do.
    """
    st = state.st_rr
    tol = state.tolerance_fraction
    last = state.last_peak_index
    events = []
    for p in peak_indices(peaks).tolist():
        if p <= last:
            raise ValueError(f"peak index {p} does not advance past {last}")
        wait = timeout_samples(st, tol)
        t_rr = p - last
        if t_rr > wait:
            events.append(AnomalyEvent(last + wait, "missing_beat", float(wait), st))
        elif check_beat(st, t_rr, epsilon_for(st, tol)):
            events.append(AnomalyEvent(p, "interval_deviation", float(t_rr), st))
        else:
            st = update(st, t_rr)
        last = p
    return events, SelfLearnerState(st, tol, last)


def run_self_learner(peaks, *, tolerance_fraction: float = TOLERANCE):
    """Learn from the first stable stretch of peaks, then monitor the
    rest.  Returns (events, final state, anchor), the position of the
    peak that closed the learning window; no peak up to it is judged."""
    indices = peak_indices(peaks)
    if indices.size < 5:
        raise NoStableRhythmError(f"need at least 5 peaks to learn a rhythm, "
                                  f"got {indices.size}")
    start, st = find_stable_window(np.diff(indices), tolerance_fraction)
    state = monitoring_state(st, indices[start + 4], tolerance_fraction)
    events, state = monitor(indices[start + 5:], state)
    return events, state, start + 4


# ---------------------------------------------------------------------------
# anomaly log files


def save_anomaly_log(path, record_id: str, events) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record", "sample_index", "kind", "t_rr", "st_rr"])
        for ev in events:
            writer.writerow([record_id, ev.sample_index, ev.kind,
                             format(ev.observed, ".17g"), format(ev.st_rr, ".17g")])
