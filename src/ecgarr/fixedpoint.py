"""Signed Q-format fixed-point arithmetic with saturating overflow.

Values are stored as raw integers scaled by 2**fraction_bits. All rounding is
round-to-nearest-even; all overflow saturates to the representable range.
Whether a format's dot products fit an int64 accumulator depends on the layer
shape too; check_accumulator is the one guard for that.
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
# A neuron's wide accumulator needs 2*(W-1) bits per product plus headroom
# for its summed terms and its bias shifted up by F. check_accumulator is
# the one check of a format and a layer shape against int64; the fixed
# model and the CLI both call it.


def check_accumulator(fmt: QFormat, layer_sizes) -> None:
    """Raise ValueError unless every neuron's accumulator fits an int64.

    layer_sizes is (inputs, hidden, outputs): a neuron sums one product
    per input of its layer, plus its shifted bias.
    """
    terms = int(max(layer_sizes[:-1])) + 1
    if 2 * (fmt.total_bits - 1) + terms.bit_length() >= 63:
        raise ValueError(f"{fmt} accumulators would overflow int64 "
                         f"for layer sizes {tuple(int(n) for n in layer_sizes)}")


def rne_constants(k):
    """(bias, parity) that make rne_shift round by k: 2**(k-1) - 1 and 1,
    or 0 and 0 for k = 0, where the shift is exact."""
    k = np.asarray(k, dtype=np.int64)
    if (k < 0).any():
        raise ValueError("shift amount must be nonnegative")
    parity = np.minimum(k, 1)
    return ((np.int64(1) << k) >> 1) - parity, parity


def rne_shift(raw, k, bias, parity):
    """raw / 2**k rounded to nearest, ties to even; (bias, parity) come
    from rne_constants(k).

    The sum carries into the quotient exactly when the remainder passes
    half, or equals half and the truncated quotient is odd.
    """
    return (raw + bias + ((raw >> k) & parity)) >> k


def rne_shift_array(raw, k):
    """Arithmetic right shift with round-to-nearest, ties to even.

    k is one shift for every element or an array of per-element shifts,
    all nonnegative.
    """
    k = np.asarray(k, dtype=np.int64)
    return rne_shift(np.asarray(raw, dtype=np.int64), k, *rne_constants(k))


def saturate_array(raw, fmt: QFormat):
    raw = np.asarray(raw, dtype=np.int64)
    return np.minimum(np.maximum(raw, fmt.raw_min), fmt.raw_max)


def quantize_raw_array(x, fmt: QFormat = QFormat()):
    """Round-half-even of x * 2**F, saturated: float array -> raw int64 array.

    NaN raises; +-inf saturate.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.count_nonzero(np.isnan(x)):
        raise ValueError("cannot quantize NaN")
    scaled = np.rint(x * fmt.scale)  # rint is round-half-even, like round()
    return np.minimum(np.maximum(scaled, fmt.raw_min), fmt.raw_max).astype(np.int64)
