"""Reference annotation parser: the per-word loop the package once ran.

It reads the stream one 16-bit word at a time in plain Python and shares
no code with ``ecgarr``, so the package's vectorised parser is checked
against it row for row and error for error.
"""

_SKIP, _NUM, _SUB, _CHAN, _AUX = 59, 60, 61, 62, 63


class AnnotationError(ValueError):
    """Malformed annotation stream (named as the package's error is)."""


def _read_word(data, i):
    if i + 2 > len(data):
        raise AnnotationError(
            f"annotation stream truncated at byte {i}: no terminator word"
        )
    return data[i] | (data[i + 1] << 8)


def parse_annotations(data: bytes, n_samples: int | None = None) -> list[tuple[int, int]]:
    """(sample index, code) of each annotation in the stream."""
    out: list[tuple[int, int]] = []
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
        out.append((ts, code))
        prev = ts
    return out
