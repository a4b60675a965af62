"""The one number rule of every text file the package reads, and the
reader of its tagged files (a magic line, then lines led by their tag).

An integer is an optional sign and at most 18 ASCII digits, so that it
fits an int64; a real is an optional sign, ASCII digits with at most one
point and an optional exponent, and must be finite.  A token that breaks the rule raises ``line N: <what>
'<token>' is not an integer`` (or ``is not a finite number``).
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager

__all__ = ["integer", "naming", "numbers", "real", "tagged", "tagged_lines"]

_INTEGER = re.compile(r"[+-]?[0-9]{1,18}")
_REAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def integer(token: str, what: str, line: int, error=ValueError) -> int:
    """token as an int; error naming line, what and token if it breaks the rule."""
    if _INTEGER.fullmatch(token):
        return int(token)
    raise error(f"line {line}: {what} {token!r} is not an integer")


def real(token: str, what: str, line: int, error=ValueError) -> float:
    """token as a finite float; error naming line, what and token if it breaks the rule."""
    value = float(token) if _REAL.fullmatch(token) else math.nan
    if math.isfinite(value):
        return value
    raise error(f"line {line}: {what} {token!r} is not a finite number")


@contextmanager
def naming(prefix, kinds=ValueError):
    """Re-raise an error of kinds raised inside, same type, with prefix first.
    Each kind must be built from one message, so a file is read (and its
    UnicodeDecodeError raised) outside."""
    try:
        yield
    except kinds as exc:
        raise type(exc)(f"{prefix}: {exc}") from None


@contextmanager
def tagged_lines(path, magic: str, kind: str):
    """The (line number, fields) of each non-blank line after the first of
    the text file at path, which must be magic; a ValueError raised inside
    names path first."""
    with open(path) as fh:
        lines = [(number, ln.split()) for number, ln in enumerate(fh, start=1) if ln.strip()]
    with naming(path):
        if not lines or lines[0][1] != magic.split():
            raise ValueError(f"not a {kind} file")
        yield lines[1:]


def tagged(lines, i: int, tag: str, *counts):
    """The line number of lines[i] and its fields after tag, which it must
    start with, followed by one of counts fields."""
    if i >= len(lines):
        raise ValueError(f"the file ends before its {tag} line")
    number, fields = lines[i]
    if fields[0] != tag or len(fields) - 1 not in counts:
        raise ValueError(f"line {number}: bad {tag} line {' '.join(fields)!r}")
    return number, fields[1:]


def numbers(parse, lines, i: int, tag: str, count: int) -> list:
    """parse (integer or real) of each of the count values of tagged line i."""
    number, fields = tagged(lines, i, tag, count)
    return [parse(v, f"{tag} value", number) for v in fields]
