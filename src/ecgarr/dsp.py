"""Wavelet filtering, R-peak detection, and R-R interval extraction.

The transform is a hand-rolled orthonormal Daubechies filter bank with
symmetric boundary extension.  Keeping it explicit (rather than pulling
in a wavelet package) makes the boundary convention, coefficient
lengths, and the perfect-reconstruction property fully pinned down by
this file and its tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import maximum_filter1d, uniform_filter1d

__all__ = [
    "DwtCoefficients",
    "PeakTrain",
    "RRSeries",
    "SignalTooShortError",
    "detect_r_peaks",
    "dwt_decompose",
    "dwt_reconstruct",
    "extract_rr",
]


class SignalTooShortError(ValueError):
    pass


# Orthonormal Daubechies scaling (lowpass) filters, natural order.
# sum(h) = sqrt(2), sum(h^2) = 1, and even shifts are orthogonal.
_WAVELETS = {
    "db1": (
        0.7071067811865476,
        0.7071067811865476,
    ),
    # db2/db3 from their closed forms: ((1 +- sqrt(3)) / 4sqrt(2), ...)
    # and the sqrt(10)-based radicals, evaluated in float64
    "db2": (
        0.4829629131445341,
        0.8365163037378077,
        0.2241438680420134,
        -0.12940952255126034,
    ),
    "db3": (
        0.33267055295008263,
        0.8068915093110927,
        0.4598775021184915,
        -0.1350110200102546,
        -0.08544127388202666,
        0.035226291885709554,
    ),
    "db4": (
        0.23037781330885523,
        0.7148465705525415,
        0.6308807679295904,
        -0.02798376941698385,
        -0.18703481171888114,
        0.030841381835986965,
        0.03288301166698295,
        -0.010597401785069032,
    ),
}


def _filters(wavelet: str):
    try:
        h = np.asarray(_WAVELETS[wavelet], dtype=np.float64)
    except KeyError:
        raise ValueError(
            f"unknown wavelet {wavelet!r}; choose from {sorted(_WAVELETS)}"
        ) from None
    # highpass by alternating-sign reversal of the lowpass
    m = h.size
    g = ((-1.0) ** np.arange(m)) * h[::-1]
    return h, g


@dataclass(frozen=True)
class DwtCoefficients:
    wavelet: str
    levels: int
    details: tuple  # level 1 (finest) first
    approximation: np.ndarray
    level_lengths: tuple  # input length that produced each level

    def detail(self, level: int) -> np.ndarray:
        if not 1 <= level <= self.levels:
            raise IndexError(f"detail level {level} outside 1..{self.levels}")
        return self.details[level - 1]


def _analysis_step(x, h, g, approx, detail):
    # symmetric extension by one filter length on each side, then
    # correlate and keep even phases; a branch not asked for is None
    m = h.size
    ext = np.pad(x, m, mode="symmetric")
    a = np.convolve(ext, h[::-1], mode="valid")[::2] if approx else None
    d = np.convolve(ext, g[::-1], mode="valid")[::2] if detail else None
    return a, d


def _synthesis_step(a, d, h, g, n):
    # polyphase: output sample 2q + r (r = 0, 1) is sample m + 2q + r of
    # the branch filter run over the zero-stuffed coefficients, which
    # reads only the taps of parity r; so each branch is two half-length
    # filters over its coefficients.  The dropped products are the zero
    # ones, so every sum is the same, term for term and in order.  A
    # muted branch is None, and so is the output when both are.
    if a is None and d is None:
        return None
    out = np.zeros(n)
    for coeffs, filt in ((a, h), (d, g)):
        if coeffs is not None:
            out[0::2] += np.convolve(coeffs, filt[0::2], mode="valid")[1 : (n + 3) // 2]
            out[1::2] += np.convolve(coeffs, filt[1::2], mode="valid")[1 : n // 2 + 1]
    return out


def _check_signal(x, levels):
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d signal, got shape {x.shape}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if x.size < 2**levels:
        raise SignalTooShortError(
            f"signal of {x.size} samples too short for {levels} levels "
            f"(needs at least {2**levels})"
        )


def _kept_levels(keep_details, levels):
    if keep_details is None:
        return set(range(1, levels + 1))
    kept = set(keep_details)
    bad = kept - set(range(1, levels + 1))
    if bad:
        raise ValueError(f"no such detail levels: {sorted(bad)}")
    return kept


def _analyze(x, h, g, levels, kept, keep_approx):
    """Analysis bank down to `levels`, computing an approximation only
    where a deeper level or keep_approx reads it and only the details
    in kept; each branch it skips is None."""
    details, lengths = [], []
    a = x
    for level in range(1, levels + 1):
        lengths.append(a.size)
        a, d = _analysis_step(a, h, g, approx=level < levels or keep_approx,
                              detail=level in kept)
        details.append(d)
    return a, details, lengths


def _synthesize(a, details, lengths, h, g):
    """Inverse bank over branches of which any may be None (muted);
    None when every branch is."""
    for d, n in zip(reversed(details), reversed(lengths)):
        a = _synthesis_step(a, d, h, g, n)
    return a


def dwt_decompose(signal, wavelet: str = "db4", levels: int = 4) -> DwtCoefficients:
    """Multi-level analysis filter bank.

    The approximation branch is split repeatedly; detail series are
    returned finest level first.  Requires len(signal) >= 2**levels.
    """
    x = np.asarray(signal, dtype=np.float64)
    _check_signal(x, levels)
    h, g = _filters(wavelet)
    a, details, lengths = _analyze(x, h, g, levels, range(1, levels + 1), True)
    return DwtCoefficients(
        wavelet=wavelet,
        levels=levels,
        details=tuple(details),
        approximation=a,
        level_lengths=tuple(lengths),
    )


def dwt_reconstruct(coeffs: DwtCoefficients, keep_details=None, keep_approx: bool = True):
    """Inverse filter bank, optionally muting branches.

    keep_details selects detail levels (1-based) to retain; None keeps
    all of them.  With everything kept this inverts dwt_decompose to
    floating-point accuracy.  Muted branches are skipped, not filtered
    as zeros; with everything muted the result is zeros.
    """
    h, g = _filters(coeffs.wavelet)
    kept = _kept_levels(keep_details, coeffs.levels)
    details = [d if level in kept else None
               for level, d in enumerate(coeffs.details, start=1)]
    out = _synthesize(coeffs.approximation if keep_approx else None,
                      details, coeffs.level_lengths, h, g)
    return np.zeros(coeffs.level_lengths[0]) if out is None else out


# ---------------------------------------------------------------------------
# R-peak detection


@dataclass(frozen=True)
class PeakTrain:
    r_indices: np.ndarray
    sampling_frequency: float

    def __post_init__(self):
        idx = np.asarray(self.r_indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("peak indices must be a flat series")
        if idx.size > 1 and not np.all(np.diff(idx) > 0):
            raise ValueError("peak indices must be strictly increasing")
        if not self.sampling_frequency > 0:
            raise ValueError("sampling frequency must be positive")
        object.__setattr__(self, "r_indices", idx)

    def __len__(self):
        return int(self.r_indices.size)


def _band_energy(x, wavelet, levels, detail_levels, phase_average):
    """Squared reconstruction from detail_levels alone, averaged over
    every one-sample shift below 2**levels (only shift 0 without
    phase_average).  Each shift rotates the record left, transforms it
    and adds the square back in place; the rotation wraps fewer than
    2**levels samples across the ends, harmless next to the ~2 s
    threshold window."""
    _check_signal(x, levels)
    h, g = _filters(wavelet)
    kept = _kept_levels(detail_levels, levels)
    shifts = range(2**levels) if phase_average else range(1)
    n = x.size
    energy = np.zeros_like(x)
    for s in shifts:
        _, details, lengths = _analyze(np.roll(x, -s), h, g, max(kept, default=0),
                                       kept, keep_approx=False)
        band = _synthesize(None, details, lengths, h, g)
        if band is None:  # no detail level kept
            continue
        band *= band
        energy[s:] += band[: n - s]
        energy[:s] += band[n - s :]
    energy /= len(shifts)
    return energy


def detect_r_peaks(
    signal,
    fs: float,
    *,
    wavelet: str = "db4",
    levels: int = 4,
    detail_levels=(3, 4),
    threshold_ratio: float = 0.4,
    window_seconds: float = 2.0,
    integrate_ms: float = 150.0,
    refine_ms: float = 50.0,
    refractory_ms: float = 200.0,
    phase_average: bool = True,
) -> PeakTrain:
    """Locate R peaks from wavelet-band energy.

    The signal is rebuilt from mid-band detail levels only and squared.
    The decimated transform is shift-variant: how much band energy a
    complex yields can swing by an order of magnitude with its sample
    alignment, so by default the squared reconstruction is averaged
    over every decimation phase (all 2**levels one-sample shifts),
    which makes the trigger feature alignment-independent.  Each shift
    computes only the branches the band reads (the approximations down
    to the deepest kept level, and the kept details) and rebuilds it
    with polyphase synthesis, so no zero-stuffed or muted branch is
    ever filtered.  That energy, smoothed over a QRS-scale window, is compared against a
    fraction of its own rolling maximum over a ~2 s window.  Each
    suprathreshold run contributes one trigger at the feature maximum,
    then moved to the raw-signal maximum within +-50 ms.  A 200 ms
    refractory gap suppresses later duplicates.  A NaN or infinite
    sample raises ValueError naming its index.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("signal must be a non-empty 1-d series")
    if not fs > 0:
        raise ValueError(f"sampling frequency must be positive, got {fs}")

    finite = np.isfinite(x)
    if not finite.all():
        first = int(np.argmin(finite))
        raise ValueError(f"signal sample {first} is not finite ({x[first]})")

    energy = _band_energy(x, wavelet, levels, detail_levels, phase_average)
    smooth = max(1, int(round(integrate_ms / 1000.0 * fs)) | 1)
    feature = uniform_filter1d(energy, size=smooth, mode="nearest")

    win = max(1, int(round(window_seconds * fs)) | 1)
    rolling = maximum_filter1d(feature, size=win, mode="nearest")
    # absolute floor keeps numerically-flat signals from triggering
    floor = (1e-9 * float(np.max(np.abs(x)))) ** 2
    active = feature > np.maximum(threshold_ratio * rolling, floor)

    padded = np.concatenate(([False], active, [False]))
    changes = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, stops = changes[0::2], changes[1::2]

    radius = int(round(refine_ms / 1000.0 * fs))
    candidates = []
    for s, e in zip(starts, stops):
        trigger = s + int(np.argmax(feature[s:e]))
        lo = max(0, trigger - radius)
        hi = min(x.size, trigger + radius + 1)
        candidates.append(lo + int(np.argmax(x[lo:hi])))

    candidates.sort()
    min_gap = refractory_ms / 1000.0 * fs
    kept: list[int] = []
    for c in candidates:
        if kept and c - kept[-1] < min_gap:
            continue
        if kept and c == kept[-1]:
            continue
        kept.append(c)

    return PeakTrain(r_indices=np.asarray(kept, dtype=np.int64), sampling_frequency=fs)


# ---------------------------------------------------------------------------
# R-R intervals


@dataclass(frozen=True)
class RRSeries:
    samples: np.ndarray
    seconds: np.ndarray
    sampling_frequency: float

    @property
    def intervals(self):
        """(samples, seconds) pairs, one per consecutive peak pair."""
        return list(zip(self.samples.tolist(), self.seconds.tolist()))

    def __len__(self):
        return int(self.samples.size)


def extract_rr(peaks: PeakTrain) -> RRSeries:
    """Successive differences of the peak train, in samples and seconds."""
    if len(peaks) < 2:
        raise ValueError(f"need at least 2 peaks for intervals, got {len(peaks)}")
    diffs = np.diff(peaks.r_indices)
    return RRSeries(
        samples=diffs,
        seconds=diffs / peaks.sampling_frequency,
        sampling_frequency=peaks.sampling_frequency,
    )
