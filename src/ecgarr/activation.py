"""Activation functions: the exact tanh and its piecewise-linear approximation.

The approximated tanh is a 13-segment piecewise-linear curve whose slopes are
all powers of two, so the fixed-point variant needs only arithmetic shifts and
constant adds. Segment offsets are pinned by exact continuity between
neighboring segments; that also places the saturation point exactly where the
outermost linear piece reaches 1: x = 4096 * (1 - 0.9986376953125) = 5.58.

One segment table drives the real value, its slope and the fixed-point value.
Over a bounded range of raw values the fixed-point curve is a finite
function, so for formats of up to LOOKUP_MAX_FRACTION_BITS fraction bits the
integer kernel reads it, and its normalized form, from one table per format.
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
    return float(out) if arr.ndim == 0 else out


def tanh_exact(x):
    """Reference hyperbolic tangent."""
    return _apply(x, np.tanh)


def _pla_segments(x: np.ndarray) -> np.ndarray:
    """Segment index of each x as intp, equal to np.searchsorted(PLA_BORDERS, x):
    one broadcast comparison of x with all 12 borders, then one int8 reduction,
    12 less one for each border at or above x. No border is at or above NaN, so
    NaN lands in the last segment, as there; a 0-d x keeps a 0-d index."""
    at_or_above = np.less_equal(x, PLA_BORDERS.reshape((-1,) + (1,) * np.ndim(x)))
    seg = np.subtract.reduce(at_or_above.view(np.int8), axis=0, dtype=np.int8,
                             keepdims=True, initial=len(PLA_BORDERS))
    return seg.astype(np.intp).reshape(np.shape(x))


def _platanh_and_slope(x: np.ndarray):
    """Piecewise-linear tanh of x and its slope, from one segment lookup."""
    seg = _pla_segments(x)
    slope = PLA_SLOPES.take(seg)
    # Clipping x to the saturation borders keeps 0 * inf out of the constant
    # ends; clipping y keeps float rounding near +-5.58 from passing +-1.
    # y is one new array, 0-d for a 0-d x (a numpy scalar refuses out=).
    y = np.clip(x, -SATURATION_BORDER, SATURATION_BORDER, out=np.empty(np.shape(x)))
    y *= slope
    y += PLA_OFFSETS.take(seg)
    return np.clip(y, -1.0, 1.0, out=y), slope


def platanh(x):
    """Piecewise-linear tanh approximation, output in [-1, 1]."""
    return _apply(x, lambda a: _platanh_and_slope(a)[0])


def platanh_derivative(x):
    """Slope of the piecewise-linear tanh at x (left-segment rule at borders)."""
    return _apply(x, lambda a: PLA_SLOPES.take(_pla_segments(a)))


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


# Up to this many fraction bits the integer kernel looks the fixed-point
# activations up in a table of about 11.2 * 2**F entries per function:
# 45,713 at F = 12, 731,383 at F = 16. Above it the segment code runs.
LOOKUP_MAX_FRACTION_BITS = 16


@lru_cache(maxsize=None)
def _lookup_table(fmt: QFormat):
    """(edge, platanh, ntanh): both functions as int32 arrays over the raws
    [-edge, edge], where edge is the first raw of the top constant segment.
    The borders are symmetric, so -edge is the last raw of the bottom one,
    and past either end both functions are constant."""
    table = _fixed_table(fmt)
    edge = -int(table[0][0])
    raws = np.arange(-edge, edge + 1, dtype=np.int64)
    values = [func(raws, table).astype(np.int32) for func in (_platanh_fixed, _ntanh_fixed)]
    for arr in values:
        arr.setflags(write=False)
    return (edge, *values)


@lru_cache(maxsize=None)
def fixed_activations(fmt: QFormat):
    """The (platanh, ntanh) pair the integer kernel runs in fmt: functions
    of raw int64 arrays that return raw values, bit-identical to
    platanh_fixed_raw_array and ntanh_fixed_raw_array.

    Up to LOOKUP_MAX_FRACTION_BITS each is one lookup in a table built on
    first use; take's clip mode clamps a raw past either end of the table
    onto that end. Above the rule each runs the segment code.
    """
    if fmt.fraction_bits > LOOKUP_MAX_FRACTION_BITS:
        table = _fixed_table(fmt)
        return (lambda r: _platanh_fixed(r, table)), (lambda r: _ntanh_fixed(r, table))
    edge, tanh, ntanh = _lookup_table(fmt)
    return ((lambda r: tanh.take(r + edge, mode="clip")),
            (lambda r: ntanh.take(r + edge, mode="clip")))
