"""Activation functions: exact references plus piecewise-linear approximations.

The approximated tanh is a 13-segment piecewise-linear curve whose slopes are
all powers of two, so the fixed-point variant needs only arithmetic shifts and
constant adds. Segment offsets are pinned by exact continuity between
neighboring segments; that also places the saturation point exactly where the
outermost linear piece reaches 1: x = 4096 * (1 - 0.9986376953125) = 5.58.

One segment table drives the real value, its slope and the fixed-point value.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# rne_shift_array and saturate_array are not called here; they stay
# importable from this module, where perfbench's tracer looks them up.
from .fixedpoint import (QFormat, quantize_raw_array, rne_constants, rne_shift,  # noqa: F401
                         rne_shift_array, saturate_array)

def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


SATURATION_BORDER = 5.58
# Segment borders, ascending. Segment i covers (PLA_BORDERS[i-1], PLA_BORDERS[i]],
# open at either end, so a border belongs to the segment it closes from above
# (and takes its slope). At +5.58 that segment's line reaches exactly 1.
PLA_BORDERS = _frozen((-SATURATION_BORDER, -3.02, -2.02, -1.475, -1.125, -0.5,
                       0.5, 1.125, 1.475, 2.02, 3.02, SATURATION_BORDER))
# Segment i is x * 2**-PLA_SHIFTS[i] + PLA_OFFSETS[i]; None marks the two
# constant (saturated) ends. The identity segment's offset is -0.0 so that
# adding it keeps the sign of a zero input.
PLA_SHIFTS = (None, 12, 5, 3, 2, 1, 0, 1, 2, 3, 5, 12, None)
PLA_SLOPES = _frozen([0.0 if s is None else 2.0 ** -s for s in PLA_SHIFTS])
PLA_OFFSETS = _frozen((-1.0, -0.9986376953125, -0.905, -0.715625, -0.53125, -0.25,
                       -0.0, 0.25, 0.53125, 0.715625, 0.905, 0.9986376953125, 1.0))


def _apply(x, func_scalar_free):
    arr = np.asarray(x, dtype=float)
    out = func_scalar_free(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def tanh_exact(x):
    """Reference hyperbolic tangent."""
    return _apply(x, np.tanh)


def softmax(z) -> np.ndarray:
    """Reference normalized exponential, stabilized by max subtraction."""
    z = np.asarray(z, dtype=float)
    if z.size < 1:
        raise ValueError("softmax needs at least one input")
    e = np.exp(z - np.max(z))
    return e / np.sum(e)


def _pla_segments(x: np.ndarray) -> np.ndarray:
    """Segment index of each x, equal to np.searchsorted(PLA_BORDERS, x).

    Counting borders at or above x is a few times cheaper than the binary
    search on training-sized arrays. NaN is at or below no border, so it
    lands in the last segment, as it does in searchsorted.
    """
    seg = np.full(np.shape(x), len(PLA_BORDERS), dtype=np.int8)
    for border in PLA_BORDERS.tolist():
        seg -= x <= border
    return seg


def _platanh_and_slope(x: np.ndarray):
    """Piecewise-linear tanh of x and its slope, from one segment lookup."""
    seg = _pla_segments(x)
    slope = PLA_SLOPES.take(seg)
    # Clipping x to the saturation borders keeps 0 * inf out of the constant
    # ends; clipping y keeps float rounding near +-5.58 from passing +-1.
    x = np.clip(x, -SATURATION_BORDER, SATURATION_BORDER)
    return np.clip(slope * x + PLA_OFFSETS.take(seg), -1.0, 1.0), slope


def platanh(x):
    """Piecewise-linear tanh approximation, output in [-1, 1]."""
    return _apply(x, lambda a: _platanh_and_slope(a)[0])


def platanh_derivative(x):
    """Slope of the piecewise-linear tanh at x (left-segment rule at borders)."""
    return _apply(x, lambda a: PLA_SLOPES.take(_pla_segments(a)))


def ntanh(x, approximate: bool = False):
    """Normalized tanh (tanh(x)+1)/2, mapping outputs into [0, 1]."""
    if approximate:
        return _apply(x, lambda a: (platanh(a) + 1.0) / 2.0)
    return _apply(x, lambda a: (np.tanh(a) + 1.0) / 2.0)


@lru_cache(maxsize=None)
def _fixed_table(fmt: QFormat):
    """The segment table in one Q-format: raw borders, shifts, the shifts'
    rounding biases and parities (rne_constants), raw offsets, raw +1."""
    # Quantize the positive half (index 6 on: the identity segment and up)
    # and mirror it, so saturation at raw_min cannot break the odd symmetry.
    pos = quantize_raw_array(PLA_BORDERS[6:], fmt)
    # raw >= the quantized saturation border saturates: that border moves
    # down one count, and any border that quantized onto it moves along.
    borders = np.concatenate([-pos[::-1], np.minimum(pos, pos[-1] - 1)])
    offsets = quantize_raw_array(PLA_OFFSETS[6:], fmt)
    offsets = np.concatenate([-offsets[:0:-1], offsets])
    # A constant end takes shift 0, which rounds nothing: raw and its
    # offset share a sign there, so the clip to +-1 returns the constant.
    shifts = np.array([0 if s is None else s for s in PLA_SHIFTS], dtype=np.int64)
    bias, parity = rne_constants(shifts)
    for arr in (borders, shifts, bias, parity, offsets):
        arr.setflags(write=False)  # shared by every caller through the cache
    return borders, shifts, bias, parity, offsets, int(offsets[-1])


def _platanh_fixed(r, table):
    """Fixed-point PLA tanh of raw int64 values r, from one table lookup."""
    borders, shifts, bias, parity, offsets, one = table
    seg = np.searchsorted(borders, r)
    y = rne_shift(r, shifts.take(seg), bias.take(seg), parity.take(seg)) + offsets.take(seg)
    # +1 is a saturated raw, so clipping to +-1 also keeps y in the format
    return np.minimum(np.maximum(y, -one), one)


_HALVE = tuple(int(v) for v in rne_constants(1))


def _ntanh_fixed(r, table):
    """(platanh(r) + 1) / 2, rounded half to even; it lies in [0, +1]."""
    return rne_shift(_platanh_fixed(r, table) + table[-1], 1, *_HALVE)


def platanh_fixed_raw_array(raw, fmt: QFormat):
    """Fixed-point piecewise-linear tanh on raw int64 values, returning raw."""
    return _platanh_fixed(np.asarray(raw, dtype=np.int64), _fixed_table(fmt))


def ntanh_fixed_raw_array(raw, fmt: QFormat):
    """Fixed-point normalized tanh: (platanh(x) + 1) / 2 on raw values."""
    return _ntanh_fixed(np.asarray(raw, dtype=np.int64), _fixed_table(fmt))
