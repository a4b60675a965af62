"""Wavelet filtering and R-peak detection.

The transform is a hand-rolled orthonormal Daubechies-4 filter bank
with symmetric boundary extension, LEVELS deep: the one bank the
detector runs.  Keeping it explicit (rather than pulling in a wavelet
package) makes the boundary convention, coefficient lengths, and the
perfect-reconstruction property fully pinned down by this file and its
tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DwtCoefficients",
    "PeakTrain",
    "SignalTooShortError",
    "detect_r_peaks",
    "dwt_decompose",
    "dwt_reconstruct",
]


class SignalTooShortError(ValueError):
    pass


# The Daubechies-4 orthonormal scaling (lowpass) filter, natural order:
# sum(h) = sqrt(2), sum(h^2) = 1, and even shifts are orthogonal.  The
# highpass is its alternating-sign reversal.
_H = np.array([
    0.23037781330885523,
    0.7148465705525415,
    0.6308807679295904,
    -0.02798376941698385,
    -0.18703481171888114,
    0.030841381835986965,
    0.03288301166698295,
    -0.010597401785069032,
])
_G = ((-1.0) ** np.arange(_H.size)) * _H[::-1]


@dataclass(frozen=True)
class DwtCoefficients:
    details: tuple  # level 1 (finest) first
    approximation: np.ndarray
    level_lengths: tuple  # input length that produced each level


# Outputs per block of synthesis or rolling maximum: temporaries stay small,
# and _band_energy streams its last two levels, never holding level 1 whole.
_BLOCK = 1 << 16


def _synthesis_blocks(a, d, h, g, lo, hi):
    """Yield (r, q, v), r = 0 then 1: v holds the samples 2q + r,
    2q + r + 2, ... in [lo, hi) of one synthesis step.  Polyphase: output
    sample 2q + r is sample m + 2q + r of the branch filter run over the
    zero-stuffed coefficients, which reads only the taps of parity r; so
    each branch is two half-length filters over its coefficients, run
    one block of outputs at a time.  The dropped products are the zero
    ones, so every sum is the same, term for term and in order.  A muted
    branch is None.  The first live branch is taken as is, not added to
    zeros: a dot product starts from +0.0 and so never returns -0.0, and
    0.0 + v is v.
    """
    live = [(coeffs, filt) for coeffs, filt in ((a, h), (d, g)) if coeffs is not None]
    for r in (0, 1):
        count = (hi + 1 - r) // 2
        for q in range((lo + 1 - r) // 2, count, _BLOCK):
            stop = min(q + _BLOCK, count)
            block = None
            for coeffs, filt in live:
                part = np.convolve(coeffs[q + 1 : stop + h.size // 2], filt[r::2], "valid")
                block = part if block is None else np.add(block, part, out=block)
            yield r, q, block


def _synthesis_slice(a, d, h, g, lo, hi):
    """Samples [lo, hi) of one synthesis step, both parities interleaved."""
    out = np.empty(hi - lo)
    for r, q, block in _synthesis_blocks(a, d, h, g, lo, hi):
        out[2 * q + r - lo :: 2][: block.size] = block
    return out


def _check_signal(x):
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d signal, got shape {x.shape}")
    if x.size < 2**LEVELS:
        raise SignalTooShortError(
            f"signal of {x.size} samples too short for {LEVELS} levels "
            f"(needs at least {2**LEVELS})"
        )


def _even_outputs(ext, filt):
    """Each row of ext correlated with filt, its even outputs that read it
    alone: the same dot products as the row run alone, from one run of the
    rows laid end to end ("full" output shifted by m - 1: a row's width each)."""
    m = filt.size
    full = np.convolve(ext.ravel(), filt[::-1], mode="full")
    return full[m - 1 : m - 1 + ext.size].reshape(ext.shape)[:, : ext.shape[1] - m + 1 : 2]


def _analyze(rows, h, g, levels, kept, keep_approx):
    """Analysis bank down to `levels` over each row of a 2-d array, one
    pass a level: the rows extended symmetrically by one filter length,
    then one correlation per branch.  An approximation only where a deeper
    level or keep_approx reads it, details only in kept; each skipped
    branch is None."""
    details, lengths = [], []
    a = rows
    for level in range(1, levels + 1):
        lengths.append(a.shape[1])
        ext = np.pad(a, ((0, 0), (h.size, h.size)), mode="symmetric")
        a, d = (_even_outputs(ext, filt) if wanted else None
                for filt, wanted in ((h, level < levels or keep_approx), (g, level in kept)))
        details.append(d)
    return a, details, lengths


def _synthesize(a, details, lengths, h, g):
    """Inverse bank over branches of which any may be None (muted);
    None when every branch is.  Empties details, dropping each detail
    once its level is rebuilt."""
    while details:
        d, n = details.pop(), lengths[len(details)]
        if a is not None or d is not None:
            a = _synthesis_slice(a, d, h, g, 0, n)
    return a


def dwt_decompose(signal) -> DwtCoefficients:
    """The detector's analysis bank: db4, LEVELS levels, the detail
    series finest level first.  Requires len(signal) >= 2**LEVELS."""
    x = np.asarray(signal, dtype=np.float64)
    _check_signal(x)
    a, details, lengths = _analyze(x[None], _H, _G, LEVELS, range(1, LEVELS + 1), True)
    return DwtCoefficients(tuple(d[0] for d in details), a[0], tuple(lengths))


def dwt_reconstruct(coeffs: DwtCoefficients):
    """The inverse bank: dwt_decompose inverted to floating-point accuracy."""
    return _synthesize(coeffs.approximation, list(coeffs.details),
                       coeffs.level_lengths, _H, _G)


# ---------------------------------------------------------------------------
# R-peak detection

# The detector's settings: the depth of the db4 bank, the detail levels
# its band keeps, the threshold as a fraction of the rolling maximum over
# WINDOW_SECONDS, the energy smoothing width, the refine radius around a
# trigger, and the refractory gap between kept peaks.
LEVELS = 4
DETAIL_LEVELS = (3, 4)
THRESHOLD_RATIO = 0.4
WINDOW_SECONDS = 2.0
INTEGRATE_MS = 150.0
REFINE_MS = 50.0
REFRACTORY_MS = 200.0


def peak_indices(values) -> np.ndarray:
    """values as int64 sample indices; ValueError names the first float with
    a fractional part, NaN or inf.  An int64 array passes through as is."""
    idx = np.asarray(values)
    if idx.dtype.kind == "f":
        bad = idx[~(np.isfinite(idx) & (idx == np.trunc(idx)))]
        if bad.size:
            raise ValueError(f"peak index {bad[0]} is not an integer")
    return idx.astype(np.int64, copy=False)


@dataclass(frozen=True)
class PeakTrain:
    r_indices: np.ndarray
    sampling_frequency: float

    def __post_init__(self):
        idx = peak_indices(self.r_indices)
        if idx.ndim != 1:
            raise ValueError("peak indices must be a flat series")
        if idx.size > 1 and not np.all(np.diff(idx) > 0):
            raise ValueError("peak indices must be strictly increasing")
        if not 0 < self.sampling_frequency < np.inf:
            raise ValueError("sampling frequency must be positive and finite")
        object.__setattr__(self, "r_indices", idx)

    def __len__(self):
        return int(self.r_indices.size)


def _atrous(x, h, g, depth, kept):
    """Linear undecimated (a trous) details {level: phases} for the kept
    levels: A_0 = x, A_l[p] = sum_j A_(l-1)[p + 2**(l-1) j] h[j], zero past
    the end, D_l the same with g; of level l's n coefficients, those from
    n - (m - 1)(2**l - 1) on read the zeros.  Level l, at dilation
    D = 2**(l-1), is its D phases, phase p the series A_l[p], A_l[p + D],
    ...: the np.convolve output of _analyze's correlation over a stride-2
    view (stride 1 at level 1) of one phase of the level above, then m - 1
    zeros: the same dot products of the same taps in the same order.  An
    approximation is dropped once the next level is built."""
    a, details = [x], {}
    for level in range(1, depth + 1):
        dilation = 2 ** (level - 1)
        above, a, d = a, [], []
        for phase in range(dilation):
            view = above[phase % len(above)][phase // len(above) :: dilation // len(above)]
            seq = np.concatenate((view, np.zeros(h.size - 1)))
            if level < depth:
                a.append(np.convolve(seq, h[::-1], mode="valid"))
            if level in kept:
                d.append(np.convolve(seq, g[::-1], mode="valid"))
            del seq  # freed before the next is made: the heap stays compact
        if level in kept:
            details[level] = d
    return details


def _band_energy(x):
    """Squared reconstruction from the DETAIL_LEVELS details alone,
    averaged over every one-sample shift below 2**LEVELS.  Each shift is
    the decimated transform of the record rotated left, squared and
    rotated back; the rotation wraps fewer than 2**LEVELS samples across
    the ends, harmless next to the ~2 s threshold window.

    Away from the rotated record's ends, detail k of level l of shift s
    is the a trous detail D_l[2**l k - (2**l - 1) m + s], m taps, so one
    linear, zero-extended analysis (_atrous) serves every shift: a shift's
    interior is a stride-2 slice of one of D_l's phases, ending before its
    rotated record's wrapped samples and so before the zeros.  The rest
    comes from the decimated bank run on the rotated record's first and
    last n - tail samples, at least 2**depth * (m + 2) (the tail starting
    on a multiple of 2**depth, where its coefficients line up with the
    record's); a record shorter than twice that takes both segments
    whole.  All the shifts' heads and tails are the rows of one batched
    analysis; only these rows and the band's accumulation into the energy
    see the wrap.  The band is the usual polyphase synthesis down to level
    2; the last two levels are streamed: each block of band outputs is
    synthesised from the slice of level 1 it reads, itself synthesised
    from level 2 (_synthesis_slice), squared and added into two parity
    planes of the energy, even and odd samples, contiguous in one plane
    (or two, where it wraps round an odd-length record's end), which are
    interleaved once the shared details are freed.
    """
    _check_signal(x)
    h, g, kept, shifts = _H, _G, DETAIL_LEVELS, 2**LEVELS
    n, m, depth = x.size, h.size, max(kept)
    span = 2**depth * (m + 2)
    tail = (n - span) >> depth << depth if 2 * span < n else 0

    # Per level: the coefficient count and the interior [lo, stop), whose
    # taps read no padding and no wrapped sample, even through the levels
    # above; per kept level also shift 0's first interior D_l position.
    shared = _atrous(x, h, g, depth, kept)
    lengths, views, lo, hi = [n], {}, 0, n - shifts
    for level in range(1, depth + 1):
        lengths.append((lengths[-1] + m) // 2 + 1)
        lo, hi = (lo + m + 1) // 2, (hi + 1) // 2
        if level in shared:
            views[level] = lo, max(lo, hi + 1), 2**level * lo - (2**level - 1) * m

    # every shift's head, then every shift's tail, as the rows of one analysis
    starts = np.concatenate((np.arange(shifts), tail + np.arange(shifts)))
    _, edges, _ = _analyze(np.take(x, starts[:, None] + np.arange(n - tail), mode="wrap"),
                           h, g, depth, kept, keep_approx=False)

    half = (n + 1) // 2
    planes = np.zeros(half), np.zeros(n // 2)  # energy[0::2], energy[1::2]
    for s in range(shifts):
        details = [None] * depth
        for level, (lo, stop, first) in views.items():
            phases, at = shared[level], first + s
            details[level - 1] = np.concatenate((  # held by the list alone: freed once used
                edges[level - 1][s, :lo],
                phases[at % len(phases)][at // len(phases) :: 2][: stop - lo],
                edges[level - 1][shifts + s, stop - (tail >> level) :]))
        finest, second = details.pop(0), details.pop(0)
        a = _synthesize(None, details, lengths[2:depth], h, g)
        for q in range(0, half, _BLOCK):
            stop = min(q + _BLOCK, half)
            end = stop + m // 2  # band samples [2q, 2 stop) read level 1 up to end
            a1 = _synthesis_slice(a, second, h, g, q, end)
            d1 = None if finest is None else finest[q:end]
            for r, _, block in _synthesis_blocks(a1, d1, h, g, 0, min(2 * stop, n) - 2 * q):
                block *= block
                e = 2 * q + r + s  # where band sample 2q + r belongs: energy[e mod n]
                while block.size:  # the rest wraps round to the record's start
                    into = planes[e % 2][e // 2 :][: block.size]
                    into += block[: into.size]
                    block, e = block[into.size :], e + 2 * into.size - n
        del a, a1, block
    del shared
    energy = np.empty(n)
    energy[0::2], energy[1::2] = planes
    energy /= shifts
    return energy


def _moving_mean(x, size):
    """Mean of each centred window of size samples, edges extended with
    the end samples; byte for byte scipy.ndimage.uniform_filter1d(x,
    size, mode="nearest").  Its order of summation: the first window is
    summed in sequence from +0.0, then the running sum takes in each step
    the entering sample minus the leaving one, and every output is that
    sum divided by size."""
    n, left = x.size, size // 2
    right = size - 1 - left
    first = np.pad(x[: size - left], (left, max(0, size - left - n)), mode="edge")
    out = np.empty(n)
    out[0] = np.add.accumulate(first)[-1] + 0.0  # + 0.0: a sum from +0.0 is never -0.0
    # out[i], i >= 1: the entering x[i + right] less the leaving
    # x[i - 1 - left], each index clipped to the record
    inside = max(0, n - 1 - right)
    out[1 : 1 + inside] = x[1 + right :]
    out[1 + inside :] = x[-1]
    out[1 : left + 2] -= x[0]
    out[left + 2 :] -= x[1 : max(1, n - 1 - left)]
    np.add.accumulate(out, out=out)  # sequential, as the running sum
    out /= size
    return out


def _moving_max(x, size):
    """Maximum of each centred window of size samples, edges extended
    with the end samples; the values of scipy.ndimage.maximum_filter1d(x,
    size, mode="nearest"), exactly, as a maximum never rounds (of tied
    zeros it may keep the other sign).  By doubling, _BLOCK outputs at a
    time: after the pass of span s, cur[i] is the maximum of the block's
    extended samples [i, i + 2s), and a window is the union of two spans
    of the largest power of 2 <= size.  Passes alternate between two
    small buffers, as numpy runs an output that overlaps an input slower."""
    n, left = x.size, size // 2
    ext = np.pad(x, (left, size - 1 - left), mode="edge")
    buffers = np.empty((2, min(n, _BLOCK) + size - 1))
    span = 1 << (size.bit_length() - 1)
    for start in range(0, n, _BLOCK):
        count = min(_BLOCK, n - start)
        cur = ext[start : start + count + size - 1]
        for k in range(size.bit_length() - 1):
            s = 1 << k
            cur = np.maximum(cur[:-s], cur[s:], out=buffers[k % 2, : cur.size - s])
        # later blocks read ext from start + count on
        np.maximum(cur[:count], cur[size - span : size - span + count],
                   out=ext[start : start + count])
    return ext[:n]


def _refined_triggers(feature, active, x, radius):
    """One candidate per run of active samples: the run's first feature
    maximum (its trigger), moved to the first maximum of x within radius
    of the trigger, the window clipped at the record's ends."""
    idx = np.flatnonzero(active)
    new_run = np.diff(idx, prepend=-2) > 1
    run = np.cumsum(new_run) - 1
    values = feature[idx]
    peak = np.maximum.reduceat(values, np.flatnonzero(new_run))
    hits = np.flatnonzero(values == peak[run])
    triggers = idx[hits[np.diff(run[hits], prepend=-1) > 0]]
    window = triggers[:, None] + np.arange(-radius, radius + 1)
    inside = (window >= 0) & (window < x.size)
    samples = np.where(inside, x[np.clip(window, 0, x.size - 1)], -np.inf)
    return np.take_along_axis(window, np.argmax(samples, axis=1)[:, None], axis=1)[:, 0]


def detect_r_peaks(signal, fs: float) -> PeakTrain:
    """Locate R peaks from wavelet-band energy.

    The signal is rebuilt from the DETAIL_LEVELS details alone and
    squared.  The decimated transform is shift-variant: how much band
    energy a complex yields can swing by an order of magnitude with its
    sample alignment, so the squared reconstruction is averaged over
    every decimation phase (all 2**LEVELS one-sample shifts), which makes
    the trigger feature alignment-independent (_band_energy shares one
    analysis between the shifts).  That energy, smoothed over a QRS-scale
    window, is compared against a fraction of its own rolling maximum
    over a ~2 s window.  Each suprathreshold run contributes one trigger
    at its first feature maximum, then moved to the first raw-signal
    maximum within +-50 ms.  A 200 ms refractory gap suppresses later
    duplicates.  A NaN or infinite sample raises ValueError naming its
    index.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("signal must be a non-empty 1-d series")
    if not 0 < fs < np.inf:
        raise ValueError(f"sampling frequency must be positive and finite, got {fs}")

    if not np.isfinite(x).all():
        first = int(np.argmin(np.isfinite(x)))
        raise ValueError(f"signal sample {first} is not finite ({x[first]})")

    energy = _band_energy(x)
    smooth = max(1, int(round(INTEGRATE_MS / 1000.0 * fs)) | 1)
    feature = _moving_mean(energy, smooth)
    del energy

    win = max(1, int(round(WINDOW_SECONDS * fs)) | 1)
    threshold = _moving_max(feature, win)
    threshold *= THRESHOLD_RATIO
    # absolute floor keeps numerically-flat signals from triggering
    floor = (1e-9 * float(np.max(np.abs(x)))) ** 2
    active = feature > np.maximum(threshold, floor, out=threshold)

    radius = int(round(REFINE_MS / 1000.0 * fs))
    candidates = np.sort(_refined_triggers(feature, active, x, radius)).tolist()
    min_gap = REFRACTORY_MS / 1000.0 * fs
    kept: list[int] = []
    for c in candidates:
        if not kept or c - kept[-1] >= min_gap:
            kept.append(c)

    return PeakTrain(r_indices=np.asarray(kept, dtype=np.int64), sampling_frequency=fs)

