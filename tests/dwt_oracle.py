"""Zero-stuffed reference for the wavelet filter bank and band energy.

It shares no code with ecgarr: the filter taps come in as an argument
(DAUBECHIES holds db1-db4, of which the package runs db4), each inverse
level convolves the upsampled (zero-stuffed) coefficients of both
branches with the full-length filters, a muted branch is filtered as
zeros, and the phase-averaged band energy is the plain loop
of np.roll, decompose, reconstruct, square and np.roll back.  It is
slow and plain on purpose; tests compare the package against it byte
for byte.
"""

import numpy as np

# Orthonormal Daubechies scaling (lowpass) filters, natural order; db2
# and db3 from their closed forms ((1 +- sqrt(3)) / 4sqrt(2), ... and the
# sqrt(10)-based radicals), evaluated in float64.
DAUBECHIES = {
    "db1": (
        0.7071067811865476,
        0.7071067811865476,
    ),
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


def filters(taps):
    h = np.asarray(taps, dtype=np.float64)
    g = ((-1.0) ** np.arange(h.size)) * h[::-1]
    return h, g


def analysis_step(x, h, g):
    m = h.size
    ext = np.pad(x, m, mode="symmetric")
    a = np.convolve(ext, h[::-1], mode="valid")[::2]
    d = np.convolve(ext, g[::-1], mode="valid")[::2]
    return a, d


def synthesis_step(a, d, h, g, n):
    m = h.size
    k = a.size
    out = np.zeros(2 * k + m - 2)
    for coeffs, filt in ((a, h), (d, g)):
        up = np.zeros(2 * k - 1)
        up[::2] = coeffs
        out += np.convolve(up, filt, mode="full")
    return out[m : m + n]


def decompose(x, taps, levels):
    """(approximation, details finest first, input length per level)."""
    h, g = filters(taps)
    details, lengths = [], []
    a = np.asarray(x, dtype=np.float64)
    for _ in range(levels):
        lengths.append(a.size)
        a, d = analysis_step(a, h, g)
        details.append(d)
    return a, details, lengths


def reconstruct(approximation, details, lengths, taps, keep_details, keep_approx):
    h, g = filters(taps)
    a = approximation if keep_approx else np.zeros_like(approximation)
    for level in range(len(details), 0, -1):
        d = details[level - 1]
        if level not in keep_details:
            d = np.zeros_like(d)
        a = synthesis_step(a, d, h, g, lengths[level - 1])
    return a


def band_energy(x, taps, levels=4, detail_levels=(3, 4), phase_average=True):
    x = np.asarray(x, dtype=np.float64)
    shifts = range(2**levels) if phase_average else range(1)
    energy = np.zeros_like(x)
    for shift in shifts:
        rolled = np.roll(x, -shift)
        a, details, lengths = decompose(rolled, taps, levels)
        band = reconstruct(a, details, lengths, taps, detail_levels, keep_approx=False)
        energy += np.roll(band * band, shift)
    energy /= len(shifts)
    return energy
