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

__all__ = [
    "Annotation",
    "AnnotationError",
    "BeatLabel",
    "EcgRecord",
    "Format212Error",
    "FormatUnsupportedError",
    "HeaderError",
    "RecordHeader",
    "SignalSpec",
    "decode_format212",
    "ingest_record",
    "label_beat",
    "parse_annotations",
    "parse_header",
    "read_header",
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
_SYMBOL_BY_CODE = {
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
BEAT_SYMBOLS = frozenset(_SYMBOL_BY_CODE[c] for c in _BEAT_CODES)

_SKIP, _NUM, _SUB, _CHAN, _AUX = 59, 60, 61, 62, 63


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
        if not self.sampling_frequency > 0:
            raise HeaderError(f"sampling frequency must be positive, got {self.sampling_frequency}")


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


def _header_number(kind, text: str, lineno: int, what: str, token: str | None = None):
    """kind(text), or a HeaderError naming the line, what was read and the
    header token holding it (text itself unless given)."""
    try:
        return kind(text)
    except ValueError:
        raise HeaderError(f"line {lineno}: bad {what} {token or text!r}") from None


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
        _header_number(int, base_str, lineno, "baseline in gain field", token)
    gain = _header_number(float, body, lineno, "gain", token)
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
    n_signals = _header_number(int, fields[1], lineno, "signal count")
    # frequency may carry a counter spec after '/'
    fs = _header_number(float, fields[2].split("/", 1)[0], lineno, "sampling frequency",
                        fields[2])
    n_samples = _header_number(int, fields[3], lineno, "record length")
    if n_signals < 1:
        raise HeaderError(f"line {lineno}: record needs at least one signal")
    if fs <= 0:
        raise HeaderError(f"line {lineno}: sampling frequency must be positive, got {fs}")
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
        fmt = _header_number(int, fields[1], lineno, "format code")
        if fmt != 212:
            raise FormatUnsupportedError(
                f"line {lineno}: sample format {fmt} unsupported (only 212)"
            )
        gain = _parse_gain_field(fields[2], lineno) if len(fields) >= 3 else 200.0
        if len(fields) >= 5:
            _header_number(int, fields[4], lineno, "adc zero")  # checked, not kept
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


def decode_format212(packed: bytes, n_samples: int) -> np.ndarray:
    """Unpack ``n_samples`` 12-bit samples from 3-byte groups.

    Layout per group: sample1 = byte0 | (low nibble of byte1) << 8,
    sample2 = byte2 | (high nibble of byte1) << 8, both sign-extended
    from 12 bits.  Returns the samples in file order as one int16
    series; a file backing k signals interleaves them, so its sample
    j * k + i is signal i's j-th.
    """
    if n_samples < 0:
        raise Format212Error(f"sample count cannot be negative, got {n_samples}")
    need = (3 * n_samples + 1) // 2
    if len(packed) < need:
        raise Format212Error(
            f"buffer truncated at byte {len(packed)}: "
            f"{n_samples} samples need {need} bytes"
        )
    buf = np.frombuffer(packed, dtype=np.uint8, count=need)

    out = np.empty(n_samples, dtype=np.int16)
    pairs = n_samples // 2
    trip = buf[: 3 * pairs].reshape(pairs, 3)
    pair = out[: 2 * pairs].reshape(pairs, 2)
    pair[:, 0] = trip[:, 1] & 0x0F
    pair[:, 1] = trip[:, 1] >> 4
    pair <<= 8
    pair |= trip[:, 0::2]
    if n_samples % 2:
        out[-1] = int(buf[3 * pairs]) | (int(buf[3 * pairs + 1]) & 0x0F) << 8
    out <<= 4  # bit 11, the 12-bit sign, becomes int16's sign bit
    out >>= 4
    return out


# ---------------------------------------------------------------------------
# annotations


def _read_word(data, i):
    if i + 2 > len(data):
        raise AnnotationError(
            f"annotation stream truncated at byte {i}: no terminator word"
        )
    return data[i] | (data[i + 1] << 8)


def parse_annotations(data: bytes, n_samples: int | None = None) -> list[Annotation]:
    """Decode a binary annotation stream.

    Each 16-bit little-endian word carries a 6-bit type code (high
    bits) and a 10-bit sample-offset delta.  Bookkeeping codes adjust
    parser state: 59 is followed by a 4-byte long offset (high 16-bit
    word first), 60..62 modify attributes this reader does not keep,
    and 63's delta counts auxiliary bytes (padded to even length).  A
    zero word ends the stream.

    Indices must never decrease; with ``n_samples`` given they must
    also stay inside the record.
    """
    out: list[Annotation] = []
    ts = 0
    prev = None
    i = 0
    while True:
        word = _read_word(data, i)
        if word == 0:
            break
        code = word >> 10
        delta = word & 0x3FF
        i += 2
        if code == _SKIP:
            if i + 4 > len(data):
                raise AnnotationError(
                    f"annotation stream truncated at byte {i}: "
                    "long-offset word needs 4 more bytes"
                )
            high = data[i] | (data[i + 1] << 8)
            low = data[i + 2] | (data[i + 3] << 8)
            longval = (high << 16) | low
            if longval >= 1 << 31:
                longval -= 1 << 32
            ts += longval
            i += 4
            continue
        if code in (_NUM, _SUB, _CHAN):
            continue
        if code == _AUX:
            skip = delta + (delta & 1)
            if i + skip > len(data):
                raise AnnotationError(
                    f"annotation stream truncated at byte {i}: "
                    f"aux field of {delta} bytes overruns buffer"
                )
            i += skip
            continue

        ts += delta
        if ts < 0:
            raise AnnotationError(f"annotation index {ts} is negative at byte {i - 2}")
        if prev is not None and ts < prev:
            raise AnnotationError(
                f"annotation index decreased from {prev} to {ts} at byte {i - 2}"
            )
        if n_samples is not None and ts >= n_samples:
            raise AnnotationError(
                f"annotation index {ts} past record end ({n_samples} samples)"
            )
        out.append(Annotation(sample_index=ts, symbol=_SYMBOL_BY_CODE.get(code), code=code))
        prev = ts
    return out


# ---------------------------------------------------------------------------
# whole-record ingest


def read_header(header_path) -> RecordHeader:
    """The header file at header_path, parsed."""
    with open(header_path, "rb") as fh:
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


def ingest_record(header_path) -> EcgRecord:
    """Read header, samples, and (optionally) annotations for a record,
    from the files record_files names.

    When several signals share one file their samples are interleaved in
    signal order.  Without an ``.atr`` the annotation list is empty.
    """
    header = read_header(header_path)
    _, *sample_paths, annotation_path = record_files(header_path, header)

    # group signal indices by their backing file, in record_files' order
    groups: dict[str, list[int]] = {}
    for idx, spec in enumerate(header.signals):
        groups.setdefault(spec.file_name, []).append(idx)

    # decoding checks that each file holds the samples the header claims
    n = header.n_samples
    decoded = []
    for path, indices in zip(sample_paths, groups.values()):
        with open(path, "rb") as fh:
            decoded.append((indices, decode_format212(fh.read(), len(indices) * n)))
    samples = np.empty((header.n_signals, n), dtype=np.int32)
    for indices, series in decoded:
        samples[indices] = series.reshape(n, len(indices)).T

    annotations: list[Annotation] = []
    if os.path.exists(annotation_path):
        with open(annotation_path, "rb") as fh:
            annotations = parse_annotations(fh.read(), n_samples=n)

    return EcgRecord(header=header, samples=samples, annotations=annotations)
