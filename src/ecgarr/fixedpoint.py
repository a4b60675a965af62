"""Signed Q-format fixed-point arithmetic with saturating overflow.

Values are stored as raw integers scaled by 2**fraction_bits. All rounding is
round-to-nearest-even; all overflow saturates to the representable range.
Whether a format's dot products fit the 53 bits a float64 holds exactly
depends on the layer shape too; check_accumulator is the one guard for that.
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


# ---------------------------------------------------------------------------
# raw-integer operations (int64 arrays)
#
# A neuron's wide accumulator needs 2*(W-1) bits per product plus headroom
# for its summed terms and its bias shifted up by F. accumulator_bits
# states that count once. The fixed model sums in float64, so
# check_accumulator holds a format and a layer shape to the 53 bits a
# float64 holds exactly; the fixed model and the CLI both call it.

FLOAT64_EXACT_BITS = 53


def accumulator_bits(fmt: QFormat, layer_sizes) -> int:
    """Bits that bound every neuron's accumulator: |acc| < 2**bits.

    layer_sizes is (inputs, hidden, outputs): a neuron sums one product
    per input of its layer, plus its shifted bias, and no term exceeds
    2**(2*(W-1)) in magnitude.
    """
    terms = int(max(layer_sizes[:-1])) + 1
    return 2 * (fmt.total_bits - 1) + terms.bit_length()


def check_accumulator(fmt: QFormat, layer_sizes) -> None:
    """Raise ValueError unless every neuron's accumulator has at most
    FLOAT64_EXACT_BITS bits."""
    bits = accumulator_bits(fmt, layer_sizes)
    if bits > FLOAT64_EXACT_BITS:
        raise ValueError(f"{fmt} accumulators need {bits} bits for layer sizes "
                         f"{tuple(int(n) for n in layer_sizes)}, past the "
                         f"{FLOAT64_EXACT_BITS} bits a float64 holds exactly")


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
