"""Signed Q-format fixed-point arithmetic with saturating overflow.

Values are stored as raw integers scaled by 2**fraction_bits. All rounding is
round-to-nearest-even; all overflow saturates to the representable range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QFormat:
    """Bit layout: total_bits including sign, fraction_bits low bits."""

    total_bits: int = 24
    fraction_bits: int = 12

    def __post_init__(self) -> None:
        if self.total_bits < 2:
            raise ValueError("total_bits must be at least 2")
        if not 0 <= self.fraction_bits < self.total_bits:
            raise ValueError("fraction_bits must satisfy 0 <= F < W")

    @property
    def scale(self) -> int:
        return 1 << self.fraction_bits

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        return self.raw_min / self.scale

    @property
    def max_value(self) -> float:
        return self.raw_max / self.scale

    def resolution(self) -> float:
        return 1.0 / self.scale


# ---------------------------------------------------------------------------
# raw-integer operations (int64 arrays)
#
# int64 holds any W <= 24 dot-product accumulator with room to spare
# (2*(W-1) + log2(terms) + 1 bits).


def rne_shift_array(raw, k):
    """Arithmetic right shift with round-to-nearest, ties to even.

    k is one shift for every element or an array of per-element shifts,
    all nonnegative.
    """
    raw = np.asarray(raw, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    if (k < 0).any():
        raise ValueError("shift amount must be nonnegative")
    q = raw >> k
    unit = np.int64(1) << k
    twice_rem = (raw & (unit - 1)) << 1
    up = (twice_rem > unit) | ((twice_rem == unit) & ((q & 1) == 1))
    return q + up


def saturate_array(raw, fmt: QFormat):
    return np.clip(np.asarray(raw, dtype=np.int64), fmt.raw_min, fmt.raw_max)


def quantize_raw_array(x, fmt: QFormat = QFormat()):
    """Round-half-even of x * 2**F, saturated: float array -> raw int64 array.

    NaN raises; +-inf saturate.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("cannot quantize NaN")
    scaled = np.rint(x * fmt.scale)  # rint is round-half-even, like round()
    return np.clip(scaled, fmt.raw_min, fmt.raw_max).astype(np.int64)
