"""Confusion counts, the four ratio metrics, and beat matching.

The arrhythmia class is the positive one throughout.  A metric is the
quotient of two integer counts, which Python's int / int rounds
correctly, or None when its denominator is empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsp import peak_indices

__all__ = [
    "ConfusionCounts",
    "MatchResult",
    "MetricsReport",
    "compute_metrics",
    "confusion_from_labels",
    "format_report",
    "match_beats",
    "nearest_within",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        for name in ("tp", "tn", "fp", "fn"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
            object.__setattr__(self, name, int(v))

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.tn + other.tn,
            self.fp + other.fp, self.fn + other.fn,
        )


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float | None
    sensitivity: float | None
    specificity: float | None
    ppv: float | None
    counts: ConfusionCounts
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("accuracy", "sensitivity", "specificity", "ppv"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {v}")


def _ratio(num: int, den: int):
    if den == 0:
        return None
    return num / den


def compute_metrics(counts: ConfusionCounts, config: dict | None = None) -> MetricsReport:
    """Accuracy, sensitivity, specificity, and positive predictive value.

    Any metric whose denominator is zero comes back as None rather than
    a silent 0; an entirely empty count set is an error.
    """
    if counts.total == 0:
        raise ValueError("cannot compute metrics over zero beats")
    return MetricsReport(
        accuracy=_ratio(counts.tp + counts.tn, counts.total),
        sensitivity=_ratio(counts.tp, counts.tp + counts.fn),
        specificity=_ratio(counts.tn, counts.tn + counts.fp),
        ppv=_ratio(counts.tp, counts.tp + counts.fp),
        counts=counts,
        config=dict(config or {}),
    )


def confusion_from_labels(true_labels, predicted_labels) -> ConfusionCounts:
    """Count agreement between 0/1 label arrays (1 = arrhythmia)."""
    t = np.asarray(true_labels)
    p = np.asarray(predicted_labels)
    if t.shape != p.shape:
        raise ValueError(f"label shapes differ: {t.shape} vs {p.shape}")
    bad = set(np.unique(np.concatenate([t, p])).tolist()) - {0, 1}
    if bad:
        raise ValueError(f"labels must be 0 or 1, found {sorted(bad)}")
    return ConfusionCounts(
        tp=int(np.sum((t == 1) & (p == 1))),
        tn=int(np.sum((t == 0) & (p == 0))),
        fp=int(np.sum((t == 0) & (p == 1))),
        fn=int(np.sum((t == 1) & (p == 0))),
    )


def format_report(report: MetricsReport) -> str:
    """Key/value text block, keys in fixed order, configuration sorted."""
    c = report.counts
    lines = [
        f"beats {c.total}",
        f"tp {c.tp}",
        f"tn {c.tn}",
        f"fp {c.fp}",
        f"fn {c.fn}",
    ]
    for name in ("accuracy", "sensitivity", "specificity", "ppv"):
        v = getattr(report, name)
        lines.append(f"{name} {'undefined' if v is None else format(v, '.6f')}")
    for key in sorted(report.config):
        lines.append(f"config.{key} {report.config[key]}")
    return "\n".join(lines) + "\n"


# A detected beat and an annotated one match within this distance.
MATCH_WINDOW_MS = 50.0


@dataclass(frozen=True)
class MatchResult:
    pairs: tuple                     # (prediction index, annotation index) pairs
    unmatched_predictions: tuple     # FP-side sample indices
    unmatched_annotations: tuple     # FN-side sample indices
    prediction_of: tuple             # per annotation, its prediction's position or -1


def nearest_within(targets, points, *, sampling_frequency: float) -> np.ndarray:
    """Position in the sorted sample indices targets of each point's
    nearest target within +/- MATCH_WINDOW_MS, or -1 where none is; a tie
    goes to the earlier position, among equal targets the first.  Both
    are read through dsp.peak_indices.  The one pairing rule: many points
    may share a target, and match_beats is its rounds."""
    if not 0 < sampling_frequency < np.inf:
        raise ValueError("sampling_frequency must be positive and finite, "
                         f"got {sampling_frequency}")
    targets, points = peak_indices(targets), peak_indices(points)
    if np.any(np.diff(targets) < 0):
        raise ValueError("targets must be sorted ascending")
    window = MATCH_WINDOW_MS * sampling_frequency / 1000.0
    if not targets.size:
        return np.full(points.size, -1, dtype=np.int64)
    after = np.minimum(np.searchsorted(targets, points), targets.size - 1)
    # the first of the targets equal to the one before
    before = np.searchsorted(targets, targets[np.maximum(after - 1, 0)])
    dist_before = np.abs(points - targets[before])
    dist_after = np.abs(targets[after] - points)
    nearest = np.where(dist_before <= dist_after, before, after)
    return np.where(np.minimum(dist_before, dist_after) <= window, nearest, -1)


def match_beats(predicted, annotated, *, sampling_frequency: float) -> MatchResult:
    """Greedy nearest pairing of two sorted sample-index lists.

    Candidate pairs within +/- MATCH_WINDOW_MS are taken closest-first (ties
    broken by annotation then prediction position), each side used at
    most once.  A distance of exactly the window still matches.  Each round
    of nearest_within pairs every free annotation and prediction that are
    each other's nearest, the first candidate greedy reaches at both, until
    a round pairs none.  A recorded rhythm settles in one round; a chain of
    beats alternating closer than the window with shrinking gaps (annotated
    beats under 100 ms apart) settles one pair a round.  nearest_within
    checks the order of both lists, its targets in the first round.
    """
    pred, ann = peak_indices(predicted), peak_indices(annotated)
    free_p, free_a = np.arange(pred.size), np.arange(ann.size)
    pred_of = np.full(ann.size, -1)  # each annotation's prediction position
    while True:
        to_p = nearest_within(pred[free_p], ann[free_a], sampling_frequency=sampling_frequency)
        to_a = nearest_within(ann[free_a], pred[free_p], sampling_frequency=sampling_frequency)
        k = np.flatnonzero(to_p >= 0)
        k = k[to_a[to_p[k]] == k]
        if not k.size:
            break
        pred_of[free_a[k]] = free_p[to_p[k]]
        free_p, free_a = np.delete(free_p, to_p[k]), np.delete(free_a, k)
    matched = pred_of >= 0
    return MatchResult(tuple(zip(pred[pred_of[matched]].tolist(), ann[matched].tolist())),
                       tuple(pred[free_p].tolist()), tuple(ann[free_a].tolist()),
                       tuple(pred_of.tolist()))
