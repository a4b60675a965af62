"""The benchmark's workloads, each a closed loop with one caller.

``classify`` and ``monitor`` make one in-process ``ecgarr evaluate`` call
per operation on the same two records; ``stream`` feeds beats one at a
time through ``mlp.predict`` and ``selflearn.monitor``.  An operation of
``stream`` is one pass over every beat of both records; each beat counts
as one attempt.

A workload is prepared (the part of set-up that is repeated and timed),
then run and checked.  ``run`` is the timed region; ``check`` compares
its outputs with a reference outside it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from typing import NamedTuple

import numpy as np

import records

N_VARIANTS = 32     # record sets with a stored reference digest; seed mod this
N_RECORDS = 2
MAX_EPOCHS = 300
# one training seed for every record variant: how long Rprop's epochs
# take depends on where its weights wander, and a seed-dependent start
# spread that by 40 % between variants
TRAIN_SEED = 7
TOLERANCE = 0.15
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def write_records(work_dir, variant):
    headers, stats = [], []
    for i in range(N_RECORDS):
        header, st = records.write_record(work_dir, f"rec{i}", variant, i)
        headers.append(header)
        stats.append(st)
    return headers, stats


def _pooled_beats(report: str) -> int:
    pooled = report[report.index("-- pooled\n"):]
    return int(pooled.split("\n", 2)[1].split()[1])


def _training_epochs(report: str):
    for line in report.splitlines():
        if line.startswith("training epochs "):
            return int(line.split()[2])
    return None


class Evaluate:
    """One ``evaluate`` call over both records per operation."""

    ops_per_run = 1

    def __init__(self, name, classifier, detector):
        self.name = name
        self.classifier = classifier
        self.detector = detector
        self.reference = None
        self.properties = {}

    def prepare(self, work_dir, seed):
        self.variant = seed % N_VARIANTS
        self.headers, self.stats = write_records(work_dir, self.variant)
        self.out_dir = os.path.join(work_dir, "out")
        self.argv = ["evaluate", "--classifier", self.classifier,
                     "--detector", self.detector,
                     "--seed", str(TRAIN_SEED), "--max-epochs", str(MAX_EPOCHS),
                     "--out-dir", self.out_dir]
        for h in self.headers:
            self.argv += ["--record", h]

    def load_reference(self):
        with open(DIGESTS) as fh:
            table = json.load(fh)
        self.reference = table[self.name].get(str(self.variant))

    def run(self):
        """Returns (wall seconds, per-beat latencies or None, outcome)."""
        from ecgarr import cli

        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self.argv)
        return time.perf_counter() - start, None, rc

    def report_bytes(self):
        with open(os.path.join(self.out_dir, "report.txt"), "rb") as fh:
            return fh.read()

    def check(self, rc):
        """(attempted, failed, beats scored) for one operation."""
        if rc != 0:
            return 1, 1, 0
        report = self.report_bytes()
        if hashlib.sha256(report).hexdigest() != self.reference:
            return 1, 1, 0
        text = report.decode()
        epochs = _training_epochs(text)
        if epochs is not None:
            self.properties["training_epochs"] = epochs
        return 1, 0, _pooled_beats(text)

    def record_properties(self):
        """Uni-dwt detection rate per beat class, outside every timed region."""
        if self.detector != "uni-dwt":
            return
        from ecgarr.dsp import detect_r_peaks
        from ecgarr.metrics import match_beats
        from ecgarr.wfdb_io import ingest_record

        found = {"N": [0, 0], "V": [0, 0]}
        for header in self.headers:
            rec = ingest_record(header)
            beats = [a for a in rec.annotations if a.is_beat]
            fs = rec.header.sampling_frequency
            peaks = detect_r_peaks(rec.samples[0].astype(np.float64), fs)
            matched = {a for _, a in match_beats(peaks.r_indices, [a.sample_index for a in beats],
                                                 sampling_frequency=fs).pairs}
            for a in beats:
                if a.symbol in found:
                    found[a.symbol][0] += a.sample_index in matched
                    found[a.symbol][1] += 1
        for sym, (hit, total) in found.items():
            self.properties[f"detection_rate_{sym}"] = hit / total


class _RecordStream(NamedTuple):
    features: np.ndarray    # one row per streamed beat
    peaks: list             # R sample index per streamed beat
    all_peaks: np.ndarray   # every beat, learning window included
    state: object           # monitor state after the learning window


class Stream:
    """Beat-by-beat bedside loop: one ``predict`` and one ``monitor`` per beat."""

    name = "stream"

    def __init__(self):
        self.properties = {}

    def prepare(self, work_dir, seed):
        from ecgarr.features import (EdgeBeatError, build_feature_vector, fit_pca,
                                     project, window_beat)
        from ecgarr.fixedpoint import QFormat
        from ecgarr import mlp
        from ecgarr.mlp import init_model, quantize_model, train
        from ecgarr.selflearn import find_stable_window, monitoring_state
        from ecgarr.wfdb_io import BeatLabel, ingest_record, label_beat

        self.variant = seed % N_VARIANTS
        headers, self.stats = write_records(work_dir, self.variant)
        per_record = []
        for header in headers:
            rec = ingest_record(header)
            signal = rec.samples[0].astype(np.float64)
            fs = rec.header.sampling_frequency
            beats = [a for a in rec.annotations if a.is_beat]
            rows = []
            for prev, cur, nxt in zip(beats, beats[1:], beats[2:]):
                try:
                    window = window_beat(signal, cur.sample_index)
                except EdgeBeatError:
                    continue
                rows.append((cur.sample_index, window,
                             (cur.sample_index - prev.sample_index) / fs,
                             (nxt.sample_index - cur.sample_index) / fs,
                             int(label_beat(cur.symbol) is not BeatLabel.NORMAL)))
            per_record.append(rows)
        train_rows = [r for rows in per_record for r in rows[: len(rows) // 2]]
        pca = fit_pca([r[1] for r in train_rows])

        def features(rows):
            return np.stack([build_feature_vector(pca, project(pca, w), rr_prev, rr_next).values
                             for _, w, rr_prev, rr_next, _ in rows])

        real, report = train(init_model(seed=TRAIN_SEED), features(train_rows),
                             [r[4] for r in train_rows], max_epochs=MAX_EPOCHS, seed=TRAIN_SEED)
        self.properties["training_epochs"] = report.epochs
        self.model = quantize_model(real, QFormat(24, 12))
        # each record is one patient: the monitor learns its rhythm from
        # the first stable beats, then judges every later beat
        self.streams = []
        for rows in per_record:
            peaks = np.array([r[0] for r in rows], dtype=np.int64)
            start, st_rr = find_stable_window(np.diff(peaks), TOLERANCE)
            state = monitoring_state(st_rr, int(peaks[start + 4]), TOLERANCE)
            self.streams.append(_RecordStream(features(rows)[start + 5:],
                                              peaks[start + 5:].tolist(), peaks, state))
        self.ops_per_run = sum(len(s.peaks) for s in self.streams)
        # warm-up: the fixed-point activation tables fill on first use
        mlp.predict(self.model, self.streams[0].features[0])

    def load_reference(self):
        from ecgarr.mlp import predict_batch
        from ecgarr.selflearn import run_self_learner

        self.reference = [
            (predict_batch(self.model, s.features).tolist(),
             run_self_learner(s.all_peaks, tolerance_fraction=TOLERANCE)[0])
            for s in self.streams
        ]

    def run(self):
        from ecgarr import mlp, selflearn

        clock = time.perf_counter
        latencies = []
        outcome = []
        start = clock()
        for x, peaks, _, state in self.streams:
            predictions, events = [], []
            for row, peak in zip(x, peaks):
                t0 = clock()
                predictions.append(mlp.predict(self.model, row))
                new_events, state = selflearn.monitor([peak], state)
                latencies.append(clock() - t0)
                events.extend(new_events)
            outcome.append((predictions, events))
        return clock() - start, latencies, outcome

    def check(self, outcome):
        attempted = failed = 0
        for (predictions, events), (want_pred, want_events) in zip(outcome, self.reference):
            attempted += len(predictions)
            if events != want_events:
                failed += len(predictions)
            else:
                failed += sum(p != q for p, q in zip(predictions, want_pred))
        return attempted, failed, attempted

    def record_properties(self):
        pass


WORKLOADS = {
    # training and fixed-point batch inference; the detector never runs
    "classify": lambda: Evaluate("classify", "fixed", "ann"),
    # detector, matching and the rhythm monitor; no PCA, training or inference
    "monitor": lambda: Evaluate("monitor", "self-learner", "uni-dwt"),
    # the same classifier and monitor code, one beat at a time
    "stream": Stream,
}
