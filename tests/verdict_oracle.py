"""Reference self-learner verdicts, one annotated beat at a time.

This is the per-annotation loop the experiment scored the rhythm
monitor with before it judged all beats with array operations.  It runs
the same monitor, then walks the annotated beats in Python: a beat
matching a monitored peak (nearest within the match window, ties to the
earlier peak, found by a plain scan) takes that peak's flag; an
unmatched beat inside a timeout gap is flagged.  Tests use it as the
oracle for ``ecgarr.experiment._self_learner_verdicts``.
"""

import numpy as np

from ecgarr.selflearn import find_stable_window, run_self_learner

MATCH_WINDOW_MS = 50.0


def _nearest_within(peaks, point, window):
    best = -1
    for peak in peaks:
        if abs(peak - point) <= window and (best < 0 or abs(peak - point) < abs(best - point)):
            best = peak
    return best


def verdict_rows(beat_indices, ann_indices, ann_labels, fs, tolerance_fraction):
    """[(annotation index, label, flag)] of each judged annotated beat."""
    events, _, _ = run_self_learner(beat_indices, tolerance_fraction=tolerance_fraction)
    start, _ = find_stable_window(np.diff(beat_indices), tolerance_fraction)
    monitor_from = int(beat_indices[start + 4])

    monitored = [int(p) for p in beat_indices if p > monitor_from]
    deviant_peaks = {ev.sample_index for ev in events if ev.kind == "interval_deviation"}
    gaps = []
    for ev in events:
        if ev.kind == "missing_beat":
            gap_start = ev.sample_index - int(ev.observed)
            later = [p for p in monitored if p > ev.sample_index]
            gap_end = later[0] if later else int(ann_indices[-1]) + 1
            gaps.append((gap_start, gap_end))

    window = MATCH_WINDOW_MS * fs / 1000.0
    out = []
    for idx, label in zip(ann_indices.tolist(), ann_labels.tolist()):
        if idx <= monitor_from:
            continue
        peak = _nearest_within(monitored, idx, window)
        if peak >= 0:
            flagged = 1 if peak in deviant_peaks else 0
        elif any(gs < idx < ge for gs, ge in gaps):
            flagged = 1
        else:
            flagged = 0
        out.append((idx, label, flagged))
    return out
