"""End-to-end evaluation runs over one or more ECG records.

A run ingests records, locates beats (from annotations or the wavelet
detector; read_beats, which also takes a peaks file, is the one beat
reader of every command), builds morphology + spacing features, trains
or applies a classifier (or the unsupervised rhythm monitor), and scores
everything against the annotation labels, per record and pooled.
Given the same configuration and seed the result is bit-for-bit
reproducible on one numpy/OpenBLAS build: PCA and training's five
products per epoch run in BLAS, whose kernels differ by CPU type, and
its bias gradients are einsum column sums in sum(axis=0)'s row order.
Fixed-point inference is exact integer sums in float64 on every kernel.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .dsp import detect_r_peaks
from .features import WINDOW_HALF_WIDTH, beat_table, feature_matrix, fit_pca
# the benchmark's tracer wraps these per-beat names in this module
from .features import build_feature_vector, project, window_beat  # noqa: F401
from .fixedpoint import QFormat
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    compute_metrics,
    confusion_from_labels,
    format_report,
    match_beats,
    nearest_within,
)
from .mlp import init_model, predict_batch, quantize_model, train
from .selflearn import TOLERANCE, run_self_learner
from .textio import integer, naming
from .wfdb_io import SYMBOL_BY_CODE, BeatLabel, label_beat, read_record, record_files
# the benchmark's tracer wraps this window search and record reader in this module
from .selflearn import find_stable_window  # noqa: F401
from .wfdb_io import ingest_record  # noqa: F401

__all__ = [
    "ExperimentResult",
    "PipelineConfig",
    "RecordResult",
    "SweepPoint",
    "annotated_beats",
    "label_peaks",
    "map_records",
    "read_beats",
    "record_table",
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
        if isinstance(self.record_paths, (str, bytes, os.PathLike)):
            raise ValueError("record_paths takes a sequence of header paths, "
                             f"not the one path {self.record_paths!r}")
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
# record loading


@lru_cache(maxsize=1)
def _pool(pid):
    """The record-loading pool of process pid, a thread per CPU; a forked
    child, which has none of its parent's workers, gets a pool of its own."""
    return ThreadPoolExecutor(os.cpu_count() or 1)


def map_records(load, paths) -> list:
    """load(header) of each record, in record order, on the process's one
    loading pool (numpy's work releases the interpreter lock).  A missing
    header or annotation file (record_files) fails before any record is
    read; after that the first failing record, in record order, raises."""
    missing = [p for header in paths for p in record_files(header)
               if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError("missing record files: " + ", ".join(missing))
    return list(_pool(os.getpid()).map(load, paths))


# label_beat of each annotation code's symbol: 0 normal, 1 arrhythmia, -1 no beat
_LABEL_BY_CODE = np.array([{BeatLabel.NORMAL: 0, BeatLabel.ARRHYTHMIA: 1}.get(
    label_beat(SYMBOL_BY_CODE.get(code)), -1) for code in range(64)], dtype=np.int64)


def annotated_beats(ann_indices, ann_codes):
    """Sample index and label (0 normal, 1 arrhythmia) of each annotated
    beat, from annotation indices and codes (wfdb_io.annotation_arrays)."""
    labels = _LABEL_BY_CODE[ann_codes]
    return ann_indices[labels >= 0], labels[labels >= 0]


def label_peaks(peaks, ann_indices, ann_labels, fs: float) -> np.ndarray:
    """The label of the annotation each peak matched, -1 where none did;
    by position, so two annotated beats on one sample keep their labels."""
    pred_of = np.array(match_beats(peaks, ann_indices, sampling_frequency=fs).prediction_of,
                       dtype=np.int64)
    labels = np.full(len(peaks), -1, dtype=np.int64)
    matched = pred_of >= 0
    labels[pred_of[matched]] = np.asarray(ann_labels)[matched]
    return labels


def _read_peaks(path, record_id, n_samples):
    """A detect artifact's int64 peaks, one a line, "#" starting a comment."""
    peaks = []
    with open(path) as fh:
        lines = fh.readlines()
    with naming(path):
        for number, line in enumerate(lines, start=1):
            text = line.split("#")[0].strip()
            if not text:
                continue
            peak = integer(text, "peak", number)
            if not 0 <= peak < n_samples:
                raise ValueError(f"peak {peak} is outside record {record_id}'s "
                                 f"{n_samples} samples")
            if peaks and peak <= peaks[-1]:
                raise ValueError(f"line {number}: peak {peak} is not after {peaks[-1]}")
            peaks.append(peak)
        if not peaks:
            raise ValueError("no peaks")
    return np.array(peaks, dtype=np.int64)


def read_beats(header, channel: int, detector: str, peaks_file=None):
    """A record's id, signal, fs, beat indices and annotated indices and
    labels.  The beats are peaks_file's (a detect artifact) if given, else
    the annotated beats (detector "ann") or the wavelet detector's.  Only
    the channel's signal is decoded (wfdb_io.read_record), into float64."""
    head, series, ann_indices, ann_codes = read_record(header, {channel})
    signal = series[channel].astype(np.float64)
    del series  # the channel's int16 samples, not read again
    record_id, fs = head.record_name, head.sampling_frequency
    ann_idx, ann_lab = annotated_beats(ann_indices, ann_codes)
    if peaks_file:
        peaks = _read_peaks(peaks_file, record_id, signal.size)
    elif detector == "ann":
        peaks = ann_idx
    else:
        with naming(f"record {record_id}"):
            peaks = detect_r_peaks(signal, fs).r_indices
    return record_id, signal, fs, peaks, ann_idx, ann_lab


def record_table(header, channel: int, detector: str,
                 half_width: int = WINDOW_HALF_WIDTH, peaks_file=None):
    """A record's id and its labeled interior beats, read_beats' beats
    cut half_width samples either side.  Annotated beats carry their own
    labels; any other beat takes the label of the annotation it matched."""
    record_id, signal, fs, peaks, ann_idx, ann_lab = read_beats(header, channel, detector,
                                                                peaks_file)
    labels = ann_lab if peaks is ann_idx else label_peaks(peaks, ann_idx, ann_lab, fs)
    return record_id, beat_table(signal, fs, peaks, labels, half_width)


# ---------------------------------------------------------------------------
# classifier path


def _train_classifier(config):
    """PCA and the trained net from each record's first half, and each
    record's id and second half to test on, in record order (names may
    repeat).  The fixed classifier and the sweep train the
    piecewise-linear net they then quantize."""
    train_halves, test = [], []
    load = partial(record_table, channel=config.channel, detector=config.detector)
    for record_id, table in map_records(load, config.record_paths):
        half = len(table) // 2
        train_halves.append(table[:half])
        test.append((record_id, table[half:]))
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


def _classifier_verdicts(config):
    """Each record's id, test-half R indices, labels and predictions, and
    the training mse history."""
    pca, model, train_report, test = _train_classifier(config)
    if config.classifier == "fixed":
        model = quantize_model(model, QFormat(config.total_bits, config.fraction_bits))
    scored = []
    for record_id, table in test:
        if not len(table):
            raise ValueError(f"record {record_id}: empty test half")
        scored.append((record_id, table.r_index, table.labels,
                       predict_batch(model, feature_matrix(pca, table))))
    return scored, train_report.mse_history


# ---------------------------------------------------------------------------
# self-learner path


def _record_verdicts(config, header):
    """A record's id and verdicts: the monitor reads no windows or labels."""
    record_id, signal, fs, peaks, ann_idx, ann_lab = read_beats(header, config.channel,
                                                                config.detector)
    del signal  # freed before judging: kept, it raised a two-worker run's peak by ~15 MB
    return (record_id, *_self_learner_verdicts(record_id, peaks, ann_idx, ann_lab, fs,
                                               config.tolerance_fraction))


def _self_learner_verdicts(record_id, peaks, ann_indices, ann_labels, fs, tolerance):
    """Annotation index, label and flag of each annotated beat the monitor
    judged.

    Beats consumed by the learning window are not judged.  An annotated
    beat matching a monitored peak inherits that peak's flag; an
    unmatched one is flagged when the peak before it opened a gap the
    monitor timed out on, and unflagged otherwise.
    """
    with naming(f"record {record_id}"):
        events, _, anchor = run_self_learner(peaks, tolerance_fraction=tolerance)
    # the peak that closed the learning window, then every monitored peak
    peaks = peaks[anchor:]
    judged = ann_indices > peaks[0]
    ann_idx, ann_lab = ann_indices[judged], ann_labels[judged]
    if not ann_idx.size:
        raise ValueError(f"record {record_id}: nothing to monitor")
    deviants = [ev.sample_index for ev in events if ev.kind == "interval_deviation"]
    # a timeout's deadline is its observed wait after the peak that opened the gap
    gap_starts = [ev.sample_index - int(ev.observed) for ev in events
                  if ev.kind == "missing_beat"]
    nearest = nearest_within(peaks[1:], ann_idx, sampling_frequency=fs)
    flagged = np.where(nearest >= 0, np.isin(peaks, deviants)[nearest + 1],
                       np.isin(peaks[np.searchsorted(peaks, ann_idx) - 1], gap_starts))
    return ann_idx, ann_lab, flagged.astype(np.int64)


# ---------------------------------------------------------------------------
# entry points


def run_experiment(config: PipelineConfig) -> ExperimentResult:
    """Each record's verdicts (R or annotation index, true label and
    prediction) from the configured mode, scored per record and pooled."""
    if config.classifier == "self-learner":
        scored = map_records(partial(_record_verdicts, config), config.record_paths)
        mse_history = ()
    else:
        scored, mse_history = _classifier_verdicts(config)
    per_record, verdicts, pooled = [], [], ConfusionCounts()
    for record_id, index, y_true, y_pred in scored:
        counts = confusion_from_labels(y_true, y_pred)
        pooled = pooled + counts
        per_record.append(RecordResult(record_id, compute_metrics(counts, config.echo())))
        verdicts.extend((record_id, *row) for row in
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
    pca, model, _, test = _train_classifier(config)
    x_test = np.vstack([feature_matrix(pca, table) for _, table in test])
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
