"""Readers for MIT-style ECG recordings.

Three file kinds make up a recording: a text header describing the
signals, a packed binary sample file (two 12-bit samples per three
bytes), and a binary beat-annotation stream.  Everything here decodes
into plain dataclasses plus numpy arrays; nothing is written back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .textio import integer, naming, real

__all__ = [
    "Annotation",
    "AnnotationError",
    "BeatLabel",
    "EcgRecord",
    "Format212Error",
    "FormatUnsupportedError",
    "HeaderError",
    "RecordHeader",
    "SYMBOL_BY_CODE",
    "SignalSpec",
    "annotation_arrays",
    "decode_format212",
    "ingest_record",
    "label_beat",
    "parse_annotations",
    "parse_header",
    "read_header",
    "read_record",
    "record_files",
]


class HeaderError(ValueError):
    """Malformed header text."""


class FormatUnsupportedError(HeaderError):
    """Header declares a sample format this reader does not handle."""


class Format212Error(ValueError):
    """Packed sample buffer is truncated or inconsistent."""


class AnnotationError(ValueError):
    """Malformed annotation stream."""


# ---------------------------------------------------------------------------
# annotation codes

# Numeric annotation code -> mnemonic character.  Codes 59..63 are
# bookkeeping words handled inline by the parser and never appear here.
SYMBOL_BY_CODE = {
    1: "N", 2: "L", 3: "R", 4: "a", 5: "V", 6: "F", 7: "J", 8: "A",
    9: "S", 10: "E", 11: "j", 12: "/", 13: "Q", 14: "~", 16: "|",
    18: "s", 19: "T", 20: "*", 21: "D", 22: '"', 23: "=", 24: "p",
    25: "B", 26: "^", 27: "t", 28: "+", 29: "u", 30: "?", 31: "!",
    32: "[", 33: "]", 34: "e", 35: "n", 36: "@", 37: "x", 38: "f",
    39: "(", 40: ")", 41: "r",
}

# Codes that mark an actual heartbeat (as opposed to rhythm changes,
# signal-quality notes and other bookkeeping).
_BEAT_CODES = frozenset(range(1, 14)) | {25, 34, 35, 38, 41}
BEAT_SYMBOLS = frozenset(SYMBOL_BY_CODE[c] for c in _BEAT_CODES)

_SKIP, _AUX = 59, 63


class BeatLabel(Enum):
    NORMAL = "normal"
    ARRHYTHMIA = "arrhythmia"
    IGNORE = "ignore"


def label_beat(symbol) -> BeatLabel:
    """Binary ground-truth label for an annotation symbol.

    'N' is the normal class, every other beat symbol counts as
    arrhythmia, and non-beat bookkeeping symbols are ignored.
    """
    if symbol == "N":
        return BeatLabel.NORMAL
    if symbol in BEAT_SYMBOLS:
        return BeatLabel.ARRHYTHMIA
    return BeatLabel.IGNORE


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class SignalSpec:
    file_name: str
    fmt: int
    gain: float = 200.0
    description: str = ""


@dataclass(frozen=True)
class RecordHeader:
    record_name: str
    n_signals: int
    sampling_frequency: float
    n_samples: int
    signals: tuple[SignalSpec, ...] = ()

    def __post_init__(self):
        if self.n_signals < 1:
            raise HeaderError(f"record needs at least one signal, got {self.n_signals}")
        if not 0 < self.sampling_frequency < np.inf:
            raise HeaderError("sampling frequency must be positive and finite, "
                              f"got {self.sampling_frequency}")


@dataclass(frozen=True)
class Annotation:
    sample_index: int
    symbol: str | None
    code: int

    @property
    def is_beat(self) -> bool:
        return self.code in _BEAT_CODES


@dataclass
class EcgRecord:
    header: RecordHeader
    samples: np.ndarray  # shape (n_signals, n_samples), int32
    annotations: list[Annotation] = field(default_factory=list)


# ---------------------------------------------------------------------------
# header parsing


def _header_lines(text):
    """Yield (1-based line number, stripped line), skipping blanks and comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_gain_field(token: str, lineno: int) -> float:
    """The gain of a token like ``200``, ``200(1024)`` or ``200(1024)/mV``.

    The baseline in parentheses must be an integer; it and the unit suffix
    are dropped.
    """
    body = token.split("/", 1)[0]
    if "(" in body:
        if not body.endswith(")"):
            raise HeaderError(f"line {lineno}: malformed gain field {token!r}")
        body, base_str = body[:-1].split("(", 1)
        integer(base_str, "baseline in gain field", lineno, HeaderError)
    gain = real(body, "gain", lineno, HeaderError)
    if gain == 0.0:
        gain = 200.0  # standard default when the field is written as 0
    return gain


def parse_header(text) -> RecordHeader:
    """Parse header text (bytes or str) into a RecordHeader.

    The first meaningful line names the record and declares signal
    count, sampling frequency and length; each following line describes
    one signal.  Only sample format 212 is accepted.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise HeaderError(f"header is not ASCII text: {exc}") from None

    lines = list(_header_lines(text))
    if not lines:
        raise HeaderError("empty header")

    lineno, record_line = lines[0]
    fields = record_line.split()
    if len(fields) < 4:
        raise HeaderError(
            f"line {lineno}: record line needs name, signal count, "
            f"sampling frequency and length, got {len(fields)} fields"
        )
    record_name = fields[0].split("/", 1)[0]  # drop segment count if present
    n_signals = integer(fields[1], "signal count", lineno, HeaderError)
    # frequency may carry a counter spec after '/'
    fs = real(fields[2].split("/", 1)[0], "sampling frequency", lineno, HeaderError)
    n_samples = integer(fields[3], "record length", lineno, HeaderError)
    if n_signals < 1:
        raise HeaderError(f"line {lineno}: record needs at least one signal")
    if fs <= 0:  # the number rule has already made it finite
        raise HeaderError(f"line {lineno}: sampling frequency must be positive and finite, got {fs}")
    if n_samples < 0:
        raise HeaderError(f"line {lineno}: record length cannot be negative")

    signal_lines = lines[1:]
    if len(signal_lines) < n_signals:
        raise HeaderError(
            f"header declares {n_signals} signals but only "
            f"{len(signal_lines)} signal lines follow"
        )

    specs = []
    for lineno, line in signal_lines[:n_signals]:
        fields = line.split()
        if len(fields) < 2:
            raise HeaderError(f"line {lineno}: signal line needs file name and format")
        file_name = fields[0]
        fmt = integer(fields[1], "format code", lineno, HeaderError)
        if fmt != 212:
            raise FormatUnsupportedError(
                f"line {lineno}: sample format {fmt} unsupported (only 212)"
            )
        gain = _parse_gain_field(fields[2], lineno) if len(fields) >= 3 else 200.0
        if len(fields) >= 5:
            integer(fields[4], "adc zero", lineno, HeaderError)  # checked, not kept
        description = " ".join(fields[9:]) if len(fields) > 9 else ""
        specs.append(SignalSpec(file_name=file_name, fmt=fmt, gain=gain,
                                description=description))

    return RecordHeader(
        record_name=record_name,
        n_signals=n_signals,
        sampling_frequency=fs,
        n_samples=n_samples,
        signals=tuple(specs),
    )


# ---------------------------------------------------------------------------
# format-212 samples


def _format212_bytes(n_bytes: int, n_samples: int) -> int:
    """The bytes n_samples packed samples take; Format212Error if n_bytes are fewer."""
    if n_samples < 0:
        raise Format212Error(f"sample count cannot be negative, got {n_samples}")
    need = (3 * n_samples + 1) // 2
    if n_bytes < need:
        raise Format212Error(f"buffer truncated at byte {n_bytes}: "
                             f"{n_samples} samples need {need} bytes")
    return need


def decode_format212(packed: bytes, n_samples: int, n_signals: int = 1,
                     signal: int = 0) -> np.ndarray:
    """Unpack signal ``signal``'s ``n_samples`` 12-bit samples from the
    3-byte groups of a buffer interleaving ``n_signals`` signals (its
    sample j * n_signals + i is signal i's j-th), as one int16 series.

    Layout per group: sample1 = byte0 | (low nibble of byte1) << 8,
    sample2 = byte2 | (high nibble of byte1) << 8, both sign-extended
    from 12 bits.  The buffer must hold all n_signals * n_samples.
    """
    if not 0 <= signal < n_signals:
        raise ValueError(f"signal {signal} out of range ({n_signals} signals)")
    buf = np.frombuffer(packed, dtype=np.uint8,
                        count=_format212_bytes(len(packed), n_signals * n_samples))
    out = np.empty(n_samples, dtype=np.int16)
    # buffer sample s is column s % 2 of group s // 2: two phases for odd n_signals
    phases = 1 + n_signals % 2
    stride = 3 * (phases * n_signals // 2)
    for phase in range(phases):
        s = signal + phase * n_signals
        dst = out[phase::phases]
        nibbles = buf[3 * (s // 2) + 1::stride][: dst.size]
        dst[:] = nibbles >> 4 if s % 2 else nibbles & 0x0F
        dst <<= 8
        dst |= buf[3 * (s // 2) + 2 * (s % 2)::stride][: dst.size]
    out <<= 4  # bit 11, the 12-bit sign, becomes int16's sign bit
    out >>= 4
    return out


# ---------------------------------------------------------------------------
# annotations


def annotation_arrays(data: bytes, n_samples: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The sample index and code of each annotation in a binary stream,
    as two int64 arrays.

    Each 16-bit little-endian word carries a 6-bit type code (high
    bits) and a 10-bit sample-offset delta.  Bookkeeping codes adjust
    parser state: 59 is followed by a 4-byte long offset (high 16-bit
    word first), 60..62 modify attributes this reader does not keep,
    and 63's delta counts auxiliary bytes (padded to even length).  A
    zero word ends the stream.

    Indices must never decrease; with ``n_samples`` given they must
    also stay inside the record.  The first fault in stream order raises.
    """
    words = np.frombuffer(data, dtype="<u2", count=len(data) // 2)
    codes = words >> 10
    live = np.ones(words.size, dtype=bool)  # not in a payload
    offsets, resume, error = {}, 0, None  # long offsets by word
    # only the terminator and the words carrying a payload need a loop
    for i in np.flatnonzero((words == 0) | (codes == _SKIP) | (codes == _AUX)).tolist():
        if i < resume:
            continue
        word = int(words[i])
        if word == 0:
            break
        after = 2 * i + 2
        if word >> 10 == _SKIP:
            if after + 4 > len(data):
                error = f"at byte {after}: long-offset word needs 4 more bytes"
                break
            high, low = words[i + 1:i + 3].tolist()
            offsets[i] = (high << 16 | low) - (high >> 15 << 32)
            resume = i + 3
        else:
            delta = word & 0x3FF
            if after + delta + (delta & 1) > len(data):
                error = f"at byte {after}: aux field of {delta} bytes overruns buffer"
                break
            resume = i + 1 + (delta + 1) // 2
        live[i + 1:resume] = False
    else:
        i, error = words.size, f"at byte {2 * words.size}: no terminator word"

    beats = np.flatnonzero(live[:i] & (codes[:i] < _SKIP))
    steps = np.zeros(i, dtype=np.int64)
    steps[beats] = words[beats] & 0x3FF
    steps[list(offsets)] = list(offsets.values())
    index = np.cumsum(steps)[beats]
    fell = np.diff(index, prepend=index[:1]) < 0
    past = index >= n_samples if n_samples is not None else False
    bad = np.flatnonzero((index < 0) | fell | past)
    if bad.size:
        k = bad[0]
        ts, at = int(index[k]), 2 * int(beats[k])
        if ts < 0:
            raise AnnotationError(f"annotation index {ts} is negative at byte {at}")
        if fell[k]:
            raise AnnotationError(f"annotation index decreased from {int(index[k - 1])} "
                                  f"to {ts} at byte {at}")
        raise AnnotationError(f"annotation index {ts} past record end ({n_samples} samples)")
    if error:
        raise AnnotationError(f"annotation stream truncated {error}")
    return index, codes[beats].astype(np.int64)


def _annotations(index, codes) -> list[Annotation]:
    return [Annotation(sample_index=i, symbol=SYMBOL_BY_CODE.get(c), code=c)
            for i, c in zip(index.tolist(), codes.tolist())]


def parse_annotations(data: bytes, n_samples: int | None = None) -> list[Annotation]:
    """annotation_arrays' annotations, one Annotation each."""
    return _annotations(*annotation_arrays(data, n_samples))


# ---------------------------------------------------------------------------
# whole-record ingest


# a record file's faults, re-raised with the file's path first
_FILE_ERRORS = (HeaderError, Format212Error, AnnotationError)


def read_header(header_path) -> RecordHeader:
    """The header file at header_path, parsed; a fault names the file."""
    with open(header_path, "rb") as fh, naming(header_path, _FILE_ERRORS):
        return parse_header(fh.read())


def record_files(header_path, header: RecordHeader | None = None) -> tuple[str, ...]:
    """The files the record at header_path is read from: the header; each
    sample file that header, the parsed header, names (beside header_path,
    in the order first named; none when header is not given); and the
    ``.atr`` beside header_path, which may be absent."""
    header_path = os.fspath(header_path)
    names = dict.fromkeys(s.file_name for s in header.signals) if header else ()
    base_dir = os.path.dirname(header_path)
    return (header_path, *(os.path.join(base_dir, name) for name in names),
            os.path.splitext(header_path)[0] + ".atr")


def read_record(header_path, signals=None):
    """A record's header; signal index -> int16 series of each of signals
    (every signal when None); and its annotation_arrays (empty without an
    ``.atr``).  Each sample file record_files names must hold the samples
    the header claims, checked in that order, but only a file holding one
    of signals is decoded.  A fault names its file; then a signal the
    header lacks raises."""
    header = read_header(header_path)
    _, *sample_paths, annotation_path = record_files(header_path, header)
    names = [spec.file_name for spec in header.signals]
    n, series = header.n_samples, {}
    for path, name in zip(sample_paths, dict.fromkeys(names)):
        held = [i for i, held_by in enumerate(names) if held_by == name]
        wanted = [i for i in held if signals is None or i in signals]
        with open(path, "rb") as fh, naming(path, _FILE_ERRORS):
            if not wanted:  # checked, not decoded
                _format212_bytes(os.fstat(fh.fileno()).st_size, len(held) * n)
                continue
            packed = fh.read()
            series.update((i, decode_format212(packed, n, len(held), held.index(i)))
                          for i in wanted)
    data = b"\0\0"  # without an .atr, a stream that is its terminator alone
    if os.path.exists(annotation_path):
        with open(annotation_path, "rb") as fh:
            data = fh.read()
    with naming(annotation_path, _FILE_ERRORS):
        index, codes = annotation_arrays(data, n_samples=n)
    for i in sorted(signals or ()):
        if not 0 <= i < header.n_signals:
            raise ValueError(f"record {header.record_name}: channel {i} "
                             f"out of range ({header.n_signals} signals)")
    return header, series, index, codes


def ingest_record(header_path) -> EcgRecord:
    """read_record of every signal, as one (n_signals, n_samples) int32
    array, and of every annotation, as an Annotation list."""
    header, series, index, codes = read_record(header_path)
    samples = np.array([series[i] for i in range(header.n_signals)], dtype=np.int32)
    return EcgRecord(header=header, samples=samples, annotations=_annotations(index, codes))
