"""Pure-integer reference for Q-format arithmetic and the PLA tanh.

It shares no code with ecgarr: the segment constants are the paper's
literals, rounding is Python's divmod and round(), and a format is read
only through its total_bits and fraction_bits.  It is slow and plain on
purpose; tests use it as the oracle for the vectorized package code.
"""

from functools import lru_cache

SATURATION = 5.58
# The curve for x > 0, outermost linear segment first:
# (lower border, shift, offset), value x * 2**-shift + offset on
# (lower, next border up].  Below the last border the curve is x itself;
# from the saturation border up it is 1.  For x < 0 it mirrors, with each
# border belonging to the segment outside it.
SEGMENTS = (
    (3.02, 12, 0.9986376953125),
    (2.02, 5, 0.905),
    (1.475, 3, 0.715625),
    (1.125, 2, 0.53125),
    (0.5, 1, 0.25),
)


def raw_limits(fmt):
    low = -(1 << (fmt.total_bits - 1))
    return low, -low - 1


def saturate(raw, fmt):
    low, high = raw_limits(fmt)
    return min(high, max(low, raw))


def rne(raw, k):
    """raw / 2**k rounded to nearest, ties to even."""
    q, rem = divmod(raw, 1 << k)
    if 2 * rem > (1 << k) or (2 * rem == (1 << k) and q % 2 == 1):
        q += 1
    return q


def to_fixed(x, fmt):
    """Raw value of a real number: round-half-even, saturated."""
    if x != x:
        raise ValueError("cannot quantize NaN")
    low, high = raw_limits(fmt)
    if x in (float("inf"), float("-inf")):
        return high if x > 0 else low
    return saturate(round(x * (1 << fmt.fraction_bits)), fmt)


@lru_cache(maxsize=None)
def _constants(total_bits, fraction_bits):
    class _Fmt:
        pass

    fmt = _Fmt()
    fmt.total_bits, fmt.fraction_bits = total_bits, fraction_bits
    segs = tuple((to_fixed(lo, fmt), k, to_fixed(off, fmt)) for lo, k, off in SEGMENTS)
    return to_fixed(SATURATION, fmt), segs, to_fixed(1.0, fmt)


def platanh(raw, fmt):
    """Fixed-point PLA tanh of one raw value, returning raw."""
    sat, segs, one = _constants(fmt.total_bits, fmt.fraction_bits)
    if raw >= sat:
        y = one
    elif raw <= -sat:
        y = -one
    else:
        y = raw
        for lo, k, off in segs:
            if raw > lo:
                y = rne(raw, k) + off
                break
            if raw <= -lo:
                y = rne(raw, k) - off
                break
    return saturate(min(one, max(-one, y)), fmt)


def ntanh(raw, fmt):
    """Fixed-point normalized tanh, (platanh + 1) / 2, on one raw value."""
    one = _constants(fmt.total_bits, fmt.fraction_bits)[2]
    return saturate(rne(platanh(raw, fmt) + one, 1), fmt)


def platanh_real(x):
    """Real PLA tanh of one float."""
    if x >= SATURATION:
        return 1.0
    if x <= -SATURATION:
        return -1.0
    for lo, k, off in SEGMENTS:
        if x > lo:
            return min(1.0, x / 2 ** k + off)
        if x <= -lo:
            return max(-1.0, x / 2 ** k - off)
    return x


def platanh_slope(x):
    """Slope of the real PLA tanh; at a border the left segment's."""
    if x <= -SATURATION or x > SATURATION:
        return 0.0
    for lo, k, _ in SEGMENTS:
        if x > lo or x <= -lo:
            return 2.0 ** -k
    return 1.0


def forward(w_hidden, b_hidden, w_out, b_out, x, fmt):
    """Fixed-point 2-layer forward pass of one row of raw inputs.

    Per neuron: one wide accumulator of raw products, the bias joined
    pre-shifted by F, a single round-half-even back to F fraction bits,
    saturation, then the activation.  Returns the raw outputs.
    """
    f = fmt.fraction_bits

    def layer(weights, biases, inputs, act):
        out = []
        for row, bias in zip(weights, biases):
            acc = sum(w * v for w, v in zip(row, inputs)) + (bias << f)
            out.append(act(saturate(rne(acc, f), fmt), fmt))
        return out

    return layer(w_out, b_out, layer(w_hidden, b_hidden, x, platanh), ntanh)
