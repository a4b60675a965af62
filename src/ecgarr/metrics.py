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


def match_beats(predicted, annotated, *, sampling_frequency: float) -> MatchResult:
    """Greedy nearest pairing of two sorted sample-index lists.

    Candidate pairs within +/- MATCH_WINDOW_MS are taken closest-first (ties
    broken by annotation then prediction position), each side used at
    most once.  A distance of exactly the window still matches.
    """
    pred, ann = peak_indices(predicted), peak_indices(annotated)
    if np.any(np.diff(pred) < 0) or np.any(np.diff(ann) < 0):
        raise ValueError("both index lists must be sorted ascending")
    if sampling_frequency <= 0:
        raise ValueError("sampling_frequency must be positive")
    window = MATCH_WINDOW_MS * sampling_frequency / 1000.0

    candidates = []
    lo = np.searchsorted(pred, ann - np.int64(np.ceil(window)), side="left")
    hi = np.searchsorted(pred, ann + np.int64(np.ceil(window)), side="right")
    for i, a in enumerate(ann):
        for j in range(lo[i], hi[i]):
            dist = abs(int(pred[j]) - int(a))
            if dist <= window:
                candidates.append((dist, i, j))
    candidates.sort()

    ann_used = set()
    pred_used = set()
    pairs = []
    for _, i, j in candidates:
        if i in ann_used or j in pred_used:
            continue
        ann_used.add(i)
        pred_used.add(j)
        pairs.append((int(pred[j]), int(ann[i])))
    pairs.sort(key=lambda pair: pair[1])
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_predictions=tuple(int(p) for j, p in enumerate(pred)
                                    if j not in pred_used),
        unmatched_annotations=tuple(int(a) for i, a in enumerate(ann)
                                    if i not in ann_used),
    )
