"""End-to-end evaluation runs over one or more ECG records.

A run ingests records, locates beats (from annotations or the wavelet
detector), builds morphology + spacing features, trains or applies a
classifier (or the unsupervised rhythm monitor), and scores everything
against the annotation labels, per record and pooled.  Given the same
configuration and seed the result is bit-for-bit reproducible on one
numpy/OpenBLAS build: PCA and the training matmuls run in BLAS, whose
kernels differ by CPU type.  Fixed-point inference does not depend on
the BLAS kernel: its float64 matrix products are exact integer sums.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dsp import detect_r_peaks
from .features import BeatTable, beat_table, feature_matrix, fit_pca
# the benchmark's tracer wraps these per-beat names in this module
from .features import build_feature_vector, project, window_beat  # noqa: F401
from .fixedpoint import QFormat
from .metrics import (
    MATCH_WINDOW_MS,
    ConfusionCounts,
    MetricsReport,
    compute_metrics,
    confusion_from_labels,
    format_report,
    match_beats,
)
from .mlp import init_model, predict_batch, quantize_model, train
from .selflearn import TOLERANCE, find_stable_window, run_self_learner
from .wfdb_io import BeatLabel, ingest_record, label_beat

__all__ = [
    "ExperimentResult",
    "PipelineConfig",
    "RecordResult",
    "SweepPoint",
    "annotated_beats",
    "label_peaks",
    "record_signal",
    "render_experiment",
    "render_sweep",
    "run_experiment",
    "sweep_fraction_bits",
]

DETECTOR_MODES = ("ann", "uni-dwt")
CLASSIFIER_MODES = ("exact", "pla", "fixed", "self-learner")
SWEEP_FRACTION_BITS = tuple(range(6, 15))


@dataclass(frozen=True)
class PipelineConfig:
    record_paths: tuple
    channel: int = 0
    detector: str = "ann"
    classifier: str = "pla"
    total_bits: int = 24
    fraction_bits: int = 12
    tolerance_fraction: float = TOLERANCE
    seed: int = 0
    max_epochs: int = 1000
    hidden_units: int = 6

    def __post_init__(self):
        object.__setattr__(self, "record_paths",
                           tuple(os.fspath(p) for p in self.record_paths))
        if not self.record_paths:
            raise ValueError("at least one record path is required")
        if self.detector not in DETECTOR_MODES:
            raise ValueError(f"unknown detector mode {self.detector!r}")
        if self.classifier not in CLASSIFIER_MODES:
            raise ValueError(f"unknown classifier mode {self.classifier!r}")
        if self.channel < 0:
            raise ValueError("channel must be nonnegative")

    def echo(self) -> dict:
        """Configuration summary embedded in every report."""
        out = {
            "detector": self.detector,
            "classifier": self.classifier,
            "split": "full-record" if self.classifier == "self-learner" else "chrono-half",
            "seed": self.seed,
            "channel": self.channel,
        }
        if self.classifier == "fixed":
            out["total_bits"] = self.total_bits
            out["fraction_bits"] = self.fraction_bits
        if self.classifier == "self-learner":
            out["tolerance"] = self.tolerance_fraction
        return out


@dataclass(frozen=True)
class RecordResult:
    record_id: str
    report: MetricsReport


@dataclass(frozen=True)
class ExperimentResult:
    per_record: tuple
    pooled: MetricsReport
    mse_history: tuple = ()
    verdicts: tuple = ()  # (record_id, sample_index, true label, predicted label)


@dataclass(frozen=True)
class SweepPoint:
    fraction_bits: int
    disagreements: int
    total: int

    @property
    def disagreement_fraction(self) -> float:
        return self.disagreements / self.total if self.total else 0.0


# ---------------------------------------------------------------------------
# record loading and beat assembly


@dataclass(frozen=True)
class _RecordData:
    record_id: str
    sampling_frequency: float
    table: BeatTable | None    # labeled interior beats; None for the self-learner
    beat_indices: np.ndarray   # the train driving windows and monitoring
    ann_indices: np.ndarray    # every annotated beat, ground truth anchor
    ann_labels: np.ndarray     # 0/1 per annotated beat


def annotated_beats(record):
    """Sample index and label (0 normal, 1 arrhythmia) of each annotated beat."""
    beats = [a for a in record.annotations if a.is_beat]
    return (
        np.array([a.sample_index for a in beats], dtype=np.int64),
        np.array([0 if label_beat(a.symbol) is BeatLabel.NORMAL else 1 for a in beats],
                 dtype=np.int64),
    )


def label_peaks(peaks, ann_indices, ann_labels, fs: float) -> np.ndarray:
    """The label of the annotation each peak matched, -1 where none did."""
    matched = match_beats(peaks, ann_indices, sampling_frequency=fs)
    label_by_ann = dict(zip(ann_indices.tolist(), ann_labels.tolist()))
    label_by_peak = {p: label_by_ann[a] for p, a in matched.pairs}
    return np.array([label_by_peak.get(int(p), -1) for p in peaks], dtype=np.int64)


def record_signal(record, channel: int) -> np.ndarray:
    """One channel of a record as float64, the array every stage reads."""
    n_signals = record.header.n_signals
    if not 0 <= channel < n_signals:
        raise ValueError(f"record {record.header.record_name}: channel {channel} "
                         f"out of range ({n_signals} signals)")
    return record.samples[channel].astype(np.float64)


def _load_record(header_path, config) -> _RecordData:
    record = ingest_record(header_path)
    signal = record_signal(record, config.channel)
    fs, record_id = record.header.sampling_frequency, record.header.record_name
    ann_idx, ann_lab = annotated_beats(record)
    del record  # its samples of every channel, not read again
    indices = ann_idx if config.detector == "ann" else detect_r_peaks(signal, fs).r_indices
    # the self-learner judges the beat train alone: it reads no windows or labels
    table = None
    if config.classifier != "self-learner":
        labels = (ann_lab if config.detector == "ann"
                  else label_peaks(indices, ann_idx, ann_lab, fs))
        table = beat_table(signal, fs, indices, labels)
    return _RecordData(
        record_id=record_id,
        sampling_frequency=fs,
        table=table,
        beat_indices=indices,
        ann_indices=ann_idx,
        ann_labels=ann_lab,
    )


def _load_records(config) -> list:
    """Each record's data, loaded on a thread per CPU (numpy's work releases
    the interpreter lock; memory grows by one record's transient arrays
    per worker).  A missing header or annotation file fails before any
    record is read; after that the first failing record, in record order,
    raises."""
    paths = config.record_paths
    missing = [p for header in paths
               for p in (header, os.path.splitext(header)[0] + ".atr")
               if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError("missing record files: " + ", ".join(missing))
    with ThreadPoolExecutor(min(len(paths), os.cpu_count() or 1)) as pool:
        return list(pool.map(_load_record, paths, [config] * len(paths)))


# ---------------------------------------------------------------------------
# classifier path


def _train_classifier(records, config):
    """PCA and the trained net from each record's first half, and the
    second halves to test on, in record order (names may repeat).  The
    fixed classifier and the sweep train the piecewise-linear net they
    then quantize."""
    train_halves, test = [], []
    for rec in records:
        half = len(rec.table) // 2
        train_halves.append(rec.table[:half])
        test.append(rec.table[half:])
    if not sum(map(len, train_halves)):
        raise ValueError("no trainable beats across the given records")
    pca = fit_pca(np.vstack([t.windows for t in train_halves]))
    x_train = np.vstack([feature_matrix(pca, t) for t in train_halves])
    y_train = np.concatenate([t.labels for t in train_halves])
    arch = init_model(config.seed, (12, config.hidden_units, 2),
                      "exact" if config.classifier == "exact" else "pla")
    model, report = train(arch, x_train, y_train,
                          max_epochs=config.max_epochs, seed=config.seed)
    return pca, model, report, test


def _classifier_verdicts(records, config):
    """Each record's test-half R indices, labels and predictions, and the
    training mse history."""
    pca, model, train_report, test = _train_classifier(records, config)
    if config.classifier == "fixed":
        model = quantize_model(model, QFormat(config.total_bits, config.fraction_bits))
    scored = []
    for rec, table in zip(records, test):
        if not len(table):
            raise ValueError(f"record {rec.record_id}: empty test half")
        scored.append((table.r_index, table.labels,
                       predict_batch(model, feature_matrix(pca, table))))
    return scored, train_report.mse_history


# ---------------------------------------------------------------------------
# self-learner path


def _self_learner_verdicts(rec: _RecordData, config):
    """Annotation index, label and flag of each annotated beat the monitor
    judged.

    Beats consumed by the learning window are not judged.  An annotated
    beat matching a monitored peak inherits that peak's flag; an
    unmatched one is flagged when the peak before it opened a gap the
    monitor timed out on, and unflagged otherwise.
    """
    events, _ = run_self_learner(
        rec.beat_indices, tolerance_fraction=config.tolerance_fraction)
    start, _ = find_stable_window(np.diff(rec.beat_indices), config.tolerance_fraction)
    # the peak that closed the learning window, then every monitored peak
    peaks = rec.beat_indices[start + 4:]
    judged = rec.ann_indices > peaks[0]
    ann_idx, ann_lab = rec.ann_indices[judged], rec.ann_labels[judged]
    if not ann_idx.size:
        raise ValueError(f"record {rec.record_id}: nothing to monitor")
    deviants = [ev.sample_index for ev in events if ev.kind == "interval_deviation"]
    # a timeout's deadline is its observed wait after the peak that opened the gap
    gap_starts = [ev.sample_index - int(ev.observed) for ev in events
                  if ev.kind == "missing_beat"]
    window = MATCH_WINDOW_MS * rec.sampling_frequency / 1000.0
    nearest = _nearest_within(peaks[1:], ann_idx, window)
    before = peaks[np.searchsorted(peaks, ann_idx) - 1]
    flagged = np.where(nearest >= 0, np.isin(nearest, deviants), np.isin(before, gap_starts))
    return ann_idx, ann_lab, flagged.astype(np.int64)


def _nearest_within(peaks, points, window):
    """Nearest of the sorted peaks to each point, or -1 if none is within
    window; a tie goes to the earlier peak."""
    if not peaks.size:
        return np.full(points.size, -1, dtype=np.int64)
    after = np.minimum(np.searchsorted(peaks, points), peaks.size - 1)
    before = np.maximum(after - 1, 0)
    dist_before = np.abs(points - peaks[before])
    dist_after = np.abs(peaks[after] - points)
    nearest = np.where(dist_before <= dist_after, peaks[before], peaks[after])
    return np.where(np.minimum(dist_before, dist_after) <= window, nearest, -1)


# ---------------------------------------------------------------------------
# entry points


def run_experiment(config: PipelineConfig) -> ExperimentResult:
    """Each record's verdicts (R or annotation index, true label and
    prediction) from the configured mode, scored per record and pooled."""
    records = _load_records(config)
    if config.classifier == "self-learner":
        scored, mse_history = [_self_learner_verdicts(rec, config) for rec in records], ()
    else:
        scored, mse_history = _classifier_verdicts(records, config)
    per_record, verdicts, pooled = [], [], ConfusionCounts()
    for rec, (index, y_true, y_pred) in zip(records, scored):
        counts = confusion_from_labels(y_true, y_pred)
        pooled = pooled + counts
        per_record.append(RecordResult(rec.record_id, compute_metrics(counts, config.echo())))
        verdicts.extend((rec.record_id, *row) for row in
                        zip(index.tolist(), y_true.tolist(), y_pred.tolist()))
    return ExperimentResult(
        per_record=tuple(per_record),
        pooled=compute_metrics(pooled, config.echo()),
        mse_history=mse_history,
        verdicts=tuple(verdicts),
    )


def sweep_fraction_bits(config: PipelineConfig,
                        fraction_bits_values=SWEEP_FRACTION_BITS):
    """Prediction disagreement of each quantization against the real
    piecewise-linear model, over the pooled test beats."""
    if config.classifier not in ("pla", "fixed"):
        raise ValueError("the sweep runs on the piecewise-linear classifier")
    pca, model, _, test = _train_classifier(_load_records(config), config)
    x_test = np.vstack([feature_matrix(pca, table) for table in test])
    reference = predict_batch(model, x_test)
    points = []
    for f in fraction_bits_values:
        q = quantize_model(model, QFormat(config.total_bits, int(f)))
        pred = predict_batch(q, x_test)
        points.append(SweepPoint(int(f), int(np.sum(pred != reference)),
                                 int(reference.size)))
    return tuple(points)


def render_experiment(result: ExperimentResult) -> str:
    parts = [f"records {len(result.per_record)}\n"]
    for rr in result.per_record:
        parts.append(f"-- record {rr.record_id}\n{format_report(rr.report)}")
    parts.append(f"-- pooled\n{format_report(result.pooled)}")
    if result.mse_history:
        parts.append(f"training epochs {len(result.mse_history)} "
                     f"final mse {result.mse_history[-1]:.8f}\n")
    return "".join(parts)


def render_sweep(points) -> str:
    lines = ["fraction_bits disagreements total fraction"]
    for p in points:
        lines.append(f"{p.fraction_bits} {p.disagreements} {p.total} "
                     f"{p.disagreement_fraction:.6f}")
    return "\n".join(lines) + "\n"
