"""Seeded synthetic ECG records, written as MIT-style files.

Each record is 30 minutes of two-channel ECG at 360 Hz.  The rhythm has
the properties each workload needs to do its layers' real work:

- normal beats with beat-to-beat morphology jitter, annotated ``N``;
- wide premature ventricular beats with a compensatory pause, ``V``;
- beats of normal morphology annotated arrhythmic (``A``, atrial
  premature, only slightly early), so they are hard to separate and
  resilient backpropagation runs for hundreds of epochs;
- a few dropped beats (a pause of two cycles, no annotation), so the
  rhythm monitor's missing-beat timeout fires;
- baseline wander, mains hum and white noise.

The encoders below write format-212 samples and the binary annotation
stream from the format description alone; the package under test only
ever sees the files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

FS = 360
N_SAMPLES = 30 * 60 * FS
GAIN = 200        # ADC units per mV
ADC_ZERO = 1024

V_SHARE = 0.07        # premature ventricular beats
A_SHARE = 0.06        # normal morphology, labelled arrhythmic
DROPPED_PER_RECORD = 4
RR_MEAN_S = 0.82

# annotation type codes, from the format description
_CODES = {"N": 1, "V": 5, "A": 8, "+": 28}
_AUX = 63

# Gaussian waves (amplitude mV, width s, offset from R s), one tuple per wave
_NORMAL_WAVES = ((0.15, 0.025, -0.20), (-0.10, 0.010, -0.03), (1.00, 0.012, 0.0),
                 (-0.25, 0.012, 0.03), (0.30, 0.060, 0.25))
_VENTRICULAR_WAVES = ((1.60, 0.020, 0.0), (-0.60, 0.018, 0.045), (-0.40, 0.080, 0.30))
_LEAD2_SCALE = 0.6


@dataclass(frozen=True)
class RecordStats:
    beats: int        # annotated beats
    arrhythmic: int   # annotated beats labelled other than N
    a_beats: int      # of those, normal morphology
    dropped: int


def _beat_train(rng):
    """(R sample index, symbol) per beat, plus the dropped-beat count."""
    # one mean heart rate keeps the beats per record, and so the work,
    # nearly the same for every seed
    rr_mean = RR_MEAN_S * FS
    drop_at = set(rng.choice(np.arange(50, 2000), DROPPED_PER_RECORD, replace=False).tolist())
    beats = []
    t = 0.6 * FS  # the sinus node's slot for beat k
    k = 0
    dropped = 0
    while True:
        # respiratory modulation plus small random variation
        rr = rr_mean * (1.0 + 0.03 * np.sin(2 * np.pi * k / 17.0) + rng.normal(0, 0.01))
        u = rng.uniform()
        k += 1
        if k in drop_at:
            t += rr
            dropped += 1
            continue
        if u < V_SHARE and beats and beats[-1][1] == "N":
            # early, then a full compensatory pause: the next slot is kept
            sym, t_beat, t_next = "V", t - 0.3 * rr, t + rr
        elif u < V_SHARE + A_SHARE:
            # slightly early; the sinus node resets to this beat
            sym = "A"
            t_beat = t - rng.uniform(0.0, 0.08) * rr
            t_next = t_beat + rr
        else:
            sym, t_beat, t_next = "N", t, t + rr
        if t_beat > N_SAMPLES - 0.6 * FS:
            break
        beats.append((int(round(t_beat)), sym))
        t = t_next
    return beats, dropped


def _add_waves(sig, center, waves, amp_jitter, width_jitter):
    half = int(0.7 * FS)
    lo, hi = max(0, center - half), min(sig.size, center + half)
    t = (np.arange(lo, hi) - center) / FS
    for amp, width, offset in waves:
        a = amp * amp_jitter
        w = width * width_jitter
        sig[lo:hi] += a * np.exp(-0.5 * ((t - offset) / w) ** 2)


def synthesize(seed: int, record_no: int):
    """Two channels of ADC samples, annotations and stats for one record."""
    rng = np.random.default_rng([seed, record_no])
    beats, dropped = _beat_train(rng)
    lead1 = np.zeros(N_SAMPLES)
    lead2 = np.zeros(N_SAMPLES)
    for r, sym in beats:
        waves = _VENTRICULAR_WAVES if sym == "V" else _NORMAL_WAVES
        amp = rng.normal(1.0, 0.06)
        width = rng.normal(1.0, 0.05)
        _add_waves(lead1, r, waves, amp, width)
        _add_waves(lead2, r, waves, _LEAD2_SCALE * amp, width)
    t = np.arange(N_SAMPLES) / FS
    for lead in (lead1, lead2):
        phase = rng.uniform(0, 2 * np.pi, size=3)
        lead += 0.15 * np.sin(2 * np.pi * 0.25 * t + phase[0])
        lead += 0.10 * np.sin(2 * np.pi * 0.05 * t + phase[1])
        lead += 0.01 * np.sin(2 * np.pi * 60.0 * t + phase[2])
        lead += rng.normal(0, 0.02, size=N_SAMPLES)
    samples = np.stack([lead1, lead2]) * GAIN + ADC_ZERO
    samples = np.clip(np.rint(samples), -2048, 2047).astype(np.int64)
    symbols = [s for _, s in beats]
    stats = RecordStats(
        beats=len(beats),
        arrhythmic=sum(s != "N" for s in symbols),
        a_beats=symbols.count("A"),
        dropped=dropped,
    )
    annotations = [(0, "+", b"(N")] + [(r, s, b"") for r, s in beats]
    return samples, annotations, stats


# ---------------------------------------------------------------------------
# file encoders


def encode_format212(samples) -> bytes:
    """Interleave the channels and pack two 12-bit samples per 3 bytes."""
    flat = np.asarray(samples, dtype=np.int64).T.reshape(-1) & 0xFFF  # two channels: even
    a, b = flat[0::2], flat[1::2]
    out = np.empty((a.size, 3), dtype=np.uint8)
    out[:, 0] = a & 0xFF
    out[:, 1] = (a >> 8) | ((b >> 8) << 4)
    out[:, 2] = b & 0xFF
    return out.tobytes()


def _word(code: int, value: int) -> bytes:
    w = (code << 10) | value
    return bytes((w & 0xFF, w >> 8))


def encode_annotations(entries) -> bytes:
    """(sample index, symbol, aux bytes) triples as an annotation stream."""
    out = bytearray()
    prev = 0
    for index, symbol, aux in entries:
        delta = index - prev
        if not 0 <= delta <= 0x3FF:
            raise ValueError(f"annotation delta {delta} does not fit 10 bits")
        out += _word(_CODES[symbol], delta)
        if aux:
            out += _word(_AUX, len(aux)) + aux + b"\0" * (len(aux) & 1)
        prev = index
    out += b"\0\0"
    return bytes(out)


def write_record(dir_path: str, name: str, seed: int, record_no: int):
    """Synthesize one record into ``dir_path``; returns (header path, stats)."""
    samples, annotations, stats = synthesize(seed, record_no)
    n_signals, n = samples.shape
    lines = [f"{name} {n_signals} {FS} {n}"]
    for i, desc in enumerate(("MLII", "V5")):
        lines.append(f"{name}.dat 212 {GAIN} 11 {ADC_ZERO} {int(samples[i, 0])} 0 0 {desc}")
    header_path = os.path.join(dir_path, f"{name}.hea")
    with open(header_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(dir_path, f"{name}.dat"), "wb") as fh:
        fh.write(encode_format212(samples))
    with open(os.path.join(dir_path, f"{name}.atr"), "wb") as fh:
        fh.write(encode_annotations(annotations))
    return header_path, stats
