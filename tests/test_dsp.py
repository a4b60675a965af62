"""Filter-bank and peak-detector tests with independent oracles."""

import importlib.util
import itertools
import math
import re
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import dwt_oracle
from ecgarr import dsp
from ecgarr.dsp import (
    PeakTrain,
    SignalTooShortError,
    detect_r_peaks,
    dwt_decompose,
    dwt_reconstruct,
)
from ecgarr.wfdb_io import ingest_record
from wfdb_fixtures import classifier_record, dropout_record


# ---------------------------------------------------------------------------
# filter table

DB4 = dwt_oracle.DAUBECHIES["db4"]


def test_filters_are_orthonormal():
    for name, taps in dwt_oracle.DAUBECHIES.items():
        h = np.asarray(taps)
        assert abs(h.sum() - np.sqrt(2.0)) < 1e-12, name
        assert abs((h * h).sum() - 1.0) < 1e-12, name
        for shift in range(2, h.size, 2):
            assert abs(np.dot(h[:-shift], h[shift:])) < 1e-12, (name, shift)
    # the package's bank is db4
    h, g = dwt_oracle.filters(DB4)
    assert dsp._H.tobytes() == h.tobytes() and dsp._G.tobytes() == g.tobytes()


def _bank(wavelet):
    """The lowpass and highpass filters of a wavelet under tests/, for
    the package's private bank helpers, which take any taps and depth."""
    return dwt_oracle.filters(dwt_oracle.DAUBECHIES[wavelet])


def _decompose(x, wavelet, levels):
    # the batched analysis run on one row
    a, details, lengths = dsp._analyze(np.asarray(x, dtype=np.float64)[None], *_bank(wavelet),
                                       levels, range(1, levels + 1), True)
    return a[0], [d[0] for d in details], lengths


# ---------------------------------------------------------------------------
# analysis oracle: nested-loop symmetric-pad correlation


def _oracle_level1(x, taps):
    h = list(taps)
    m = len(h)
    g = [((-1.0) ** j) * h[m - 1 - j] for j in range(m)]
    ext = list(reversed(x[:m])) + list(x) + list(reversed(x[-m:]))
    count = (len(x) + m) // 2 + 1
    a = [sum(ext[2 * k + j] * h[j] for j in range(m)) for k in range(count)]
    d = [sum(ext[2 * k + j] * g[j] for j in range(m)) for k in range(count)]
    return np.asarray(a), np.asarray(d)


@pytest.mark.parametrize("wavelet", ["db1", "db2", "db3", "db4"])
def test_single_level_matches_direct_convolution(wavelet):
    rng = np.random.default_rng(11)
    for n in (16, 33, 100):
        x = rng.standard_normal(n)
        a, details, _ = _decompose(x, wavelet, 1)
        a_ref, d_ref = _oracle_level1(x, dwt_oracle.DAUBECHIES[wavelet])
        assert np.max(np.abs(a - a_ref)) < 1e-12
        assert np.max(np.abs(details[0] - d_ref)) < 1e-12
        if wavelet == "db4":  # the public bank's finest level
            assert dwt_decompose(x).details[0].tobytes() == details[0].tobytes()


def test_impulse_details_are_filter_taps():
    # an interior impulse lands filter taps (alternating-sign reversed
    # lowpass) at the parity-aligned detail positions
    taps = np.asarray(DB4)
    m = taps.size
    g = ((-1.0) ** np.arange(m)) * taps[::-1]
    n, t = 64, 31
    x = np.zeros(n)
    x[t] = 1.0
    d = dwt_decompose(x).details[0]
    nonzero = np.flatnonzero(np.abs(d) > 1e-15)
    assert nonzero.size > 0
    for k in nonzero:
        j = (m + t) - 2 * k  # position inside the filter support
        assert 0 <= j < m
        assert abs(d[k] - g[j]) < 1e-12


def test_constant_signal_has_zero_details():
    coeffs = dwt_decompose(np.full(256, 3.7))
    assert len(coeffs.details) == 4
    for d in coeffs.details:
        assert np.max(np.abs(d)) < 1e-9


def test_perfect_reconstruction_random_signals():
    rng = np.random.default_rng(1024)
    for wavelet in ("db1", "db2", "db3", "db4"):
        for n in (1024, 777, 100):
            x = rng.standard_normal(n)
            for levels in (1, 3, 4):
                a, details, lengths = _decompose(x, wavelet, levels)
                x_hat = dsp._synthesize(a, details, lengths, *_bank(wavelet))
                assert np.max(np.abs(x_hat - x)) < 1e-9, (wavelet, n, levels)
            x_hat = dwt_reconstruct(dwt_decompose(x))
            assert np.max(np.abs(x_hat - x)) < 1e-9, n


def test_reconstruction_is_linear_in_branches():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(512)
    a, details, lengths = _decompose(x, "db4", 4)
    parts = dsp._synthesize(a, [None] * 4, lengths, dsp._H, dsp._G)
    for level in range(1, 5):
        kept = [d if i == level else None for i, d in enumerate(details, start=1)]
        parts = parts + dsp._synthesize(None, kept, lengths, dsp._H, dsp._G)
    assert np.max(np.abs(parts - x)) < 1e-9


def test_level_lengths_follow_halving_rule():
    x = np.zeros(300)
    coeffs = dwt_decompose(x)
    m = len(DB4)
    expected = 300
    for level in range(1, 5):
        assert coeffs.level_lengths[level - 1] == expected
        expected = (expected + m) // 2 + 1
        assert coeffs.details[level - 1].size == expected
    assert coeffs.approximation.size == expected


def test_decompose_input_validation():
    with pytest.raises(SignalTooShortError):
        dwt_decompose(np.zeros(15))
    dwt_decompose(np.zeros(16))  # boundary is fine
    with pytest.raises(ValueError):
        dwt_decompose(np.zeros((4, 4)))
    with pytest.raises(SignalTooShortError):
        dsp._band_energy(np.zeros(15))


# ---------------------------------------------------------------------------
# zero-stuffed reference (tests/dwt_oracle.py)


@pytest.mark.parametrize("wavelet", sorted(dwt_oracle.DAUBECHIES))
def test_reconstruct_matches_zero_stuffed_oracle(wavelet):
    # every subset of kept details x kept approximation, byte for byte,
    # through the private bank at each depth; db4 at four levels also
    # through dwt_decompose and dwt_reconstruct
    taps = dwt_oracle.DAUBECHIES[wavelet]
    rng = np.random.default_rng(17)
    for levels in (1, 2, 3, 4):
        for n in (2**levels, 2**levels + 1, 100, 101):
            x = rng.standard_normal(n) * 100.0
            a, details, lengths = _decompose(x, wavelet, levels)
            approx, want_details, _ = dwt_oracle.decompose(x, taps, levels)
            assert a.tobytes() == approx.tobytes()
            assert [d.tobytes() for d in details] == [d.tobytes() for d in want_details]
            for size in range(levels + 1):
                for kept in itertools.combinations(range(1, levels + 1), size):
                    for keep_approx in (False, True):
                        if not (kept or keep_approx):
                            continue  # nothing to synthesize
                        got = dsp._synthesize(
                            a if keep_approx else None,
                            [d if level in kept else None
                             for level, d in enumerate(details, start=1)],
                            lengths, *_bank(wavelet))
                        want = dwt_oracle.reconstruct(approx, want_details, lengths, taps,
                                                      kept, keep_approx)
                        assert got.shape == want.shape == (n,)
                        assert got.tobytes() == want.tobytes(), (levels, n, kept, keep_approx)
            if wavelet == "db4" and levels == 4:
                coeffs = dwt_decompose(x)
                assert coeffs.approximation.tobytes() == approx.tobytes()
                assert [d.tobytes() for d in coeffs.details] == \
                    [d.tobytes() for d in want_details]
                want = dwt_oracle.reconstruct(approx, want_details, lengths, taps,
                                              range(1, 5), True)
                assert dwt_reconstruct(coeffs).tobytes() == want.tobytes(), n


def _oracle_energy(x):
    return dwt_oracle.band_energy(x, DB4, 4, (3, 4), True)


def _assert_detector_matches_oracle(x, fs, monkeypatch):
    """Band energy byte for byte, and the peak list of the detector run
    on the oracle's energy and the loop filters; returns the peak count."""
    x = np.asarray(x, dtype=np.float64)
    assert dsp._band_energy(x).tobytes() == _oracle_energy(x).tobytes()
    peaks = detect_r_peaks(x, fs).r_indices
    with monkeypatch.context() as patched:
        patched.setattr(dsp, "_band_energy", _oracle_energy)
        patched.setattr(dsp, "_moving_mean", _loop_moving_mean)
        patched.setattr(dsp, "_moving_max", _loop_moving_max)
        reference = detect_r_peaks(x, fs).r_indices
    assert peaks.tolist() == reference.tolist()
    return peaks.size


@pytest.mark.parametrize("make", [classifier_record, dropout_record])
def test_detector_matches_oracle_on_fixture_records(make, tmp_path, monkeypatch):
    record = ingest_record(make(tmp_path, "rec"))
    assert _assert_detector_matches_oracle(
        record.samples[0], record.header.sampling_frequency, monkeypatch) >= 38


def test_detector_matches_oracle_on_triangle_train(monkeypatch):
    x, truth = _triangle_train(4000, 345, 200)
    assert _assert_detector_matches_oracle(x, 500.0, monkeypatch) == len(truth)


def test_detector_matches_oracle_where_the_wrap_dominates(monkeypatch):
    # at 16-40 samples the one-sample shifts wrap across most of the record
    rng = np.random.default_rng(3)
    for n in range(16, 41):
        x = rng.standard_normal(n) * 50.0
        x[n // 2] += 1000.0
        _assert_detector_matches_oracle(x, 360.0, monkeypatch)


def _benchmark_records(monkeypatch):
    # the benchmark's synthetic record generator, loaded by path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "records.py"
    spec = importlib.util.spec_from_file_location("perfbench_records", path)
    records = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, records)  # its dataclasses look it up
    spec.loader.exec_module(records)
    return records


def test_detector_matches_oracle_on_benchmark_record(monkeypatch):
    # five minutes of the benchmark's synthetic record
    records = _benchmark_records(monkeypatch)
    samples, _, _ = records.synthesize(1, 0)
    peaks = _assert_detector_matches_oracle(samples[0, : 5 * 60 * records.FS],
                                            records.FS, monkeypatch)
    assert peaks > 300  # about 365 beats in five minutes


@pytest.mark.parametrize("record_no", [0, 1])
def test_band_energy_matches_oracle_on_full_benchmark_records(record_no, monkeypatch):
    # the whole 30-minute record, 648,000 samples, as the monitor workload reads it
    samples, _, _ = _benchmark_records(monkeypatch).synthesize(1, record_no)
    x = samples[0].astype(np.float64)
    assert dsp._band_energy(x).tobytes() == _oracle_energy(x).tobytes()


def test_detector_on_two_threads_gives_the_serial_peaks(monkeypatch):
    # as map_records runs it: both benchmark records at once, one per
    # pool thread, so the shared analysis must be each call's own
    records = _benchmark_records(monkeypatch)
    signals = [records.synthesize(1, k)[0][0].astype(np.float64) for k in (0, 1)]
    serial = [detect_r_peaks(x, records.FS).r_indices.tobytes() for x in signals]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' Python steps too
    try:
        with ThreadPoolExecutor(2) as pool:
            for _ in range(2):
                assert [p.r_indices.tobytes() for p in pool.map(
                    detect_r_peaks, signals, [records.FS] * 2, timeout=60)] == serial
    finally:
        sys.setswitchinterval(interval)


def test_benchmark_record_memory_stays_within_its_budget(tmp_path, monkeypatch):
    # A run loads its records on one thread per CPU, so its memory grows
    # by one record's transient arrays per worker.  Traced peaks on a
    # 30-minute record: ingest within 3x the bytes of its samples, the
    # detector within 3.75x those of its float64 signal (3.73x measured).
    records = _benchmark_records(monkeypatch)
    header, _ = records.write_record(tmp_path, "rec0", 1, 0)
    tracemalloc.start()
    try:
        record = ingest_record(header)
        _, ingest_peak = tracemalloc.get_traced_memory()
        x = record.samples[0].astype(np.float64)
        samples_bytes = record.samples.nbytes
        del record
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        detect_r_peaks(x, records.FS)
        _, detect_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ingest_peak <= 3 * samples_bytes, ingest_peak / samples_bytes
    assert detect_peak - before <= 3.75 * x.nbytes, (detect_peak - before) / x.nbytes


def test_detector_makes_few_numpy_calls_on_a_benchmark_record(monkeypatch):
    # Two records detect on two threads, and a numpy call that releases
    # the interpreter lock may hand it to the other: the edge analyses of
    # all 16 shifts run as one pass a level, and a synthesis call yields
    # up to _BLOCK outputs.
    x = _benchmark_records(monkeypatch).synthesize(1, 0)[0][0].astype(np.float64)
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np, "convolve", counted("convolve", np.convolve))
    monkeypatch.setattr(np, "pad", counted("pad", np.pad))
    detect_r_peaks(x, 360.0)
    assert calls["convolve"] <= 520 and calls["pad"] <= 10, calls


@pytest.mark.parametrize("wavelet", sorted(dwt_oracle.DAUBECHIES))
@pytest.mark.parametrize("levels", [3, 4, 5])
def test_band_energy_matches_oracle_around_the_end_patches(wavelet, levels):
    # The shared analysis patches the rotated record's first and last
    # 2**depth * (m + 2) samples, as its interior stops short of the
    # rotation's wrapped samples; below twice that both patches are the
    # whole record.  Every length on both sides of that overlap, and of
    # the 2**depth * (m + 1) one of a circular shared analysis, for the
    # m taps of each wavelet and each depth up to levels, odd and even,
    # most of them no multiple of 16, run through the db4 detector band;
    # a record shorter than 16 samples is too short for it.
    m = len(dwt_oracle.DAUBECHIES[wavelet])
    rng = np.random.default_rng(levels * 10 + m)
    for depth in (4, 4, 2, 4):
        if depth > levels:
            continue
        lengths = [2**levels, 2**levels + 1, 1001]
        for widen in (1, 2):
            overlap = 2 * 2**depth * (m + widen)
            lengths += range(overlap - 3, overlap + 4)
        for n in (n for n in lengths if n >= 2**levels):
            x = rng.standard_normal(n) * 100.0
            x[n // 3] += 2000.0
            if n < 2**dsp.LEVELS:
                with pytest.raises(SignalTooShortError):
                    dsp._band_energy(x)
                continue
            assert dsp._band_energy(x).tobytes() == _oracle_energy(x).tobytes(), (depth, n)


def _nan_past_the_linear_end(atrous):
    """_atrous with every detail coefficient whose taps reach past the
    record's end, those from n - (m - 1)(2**l - 1) on at level l, NaN."""
    def run(x, h, g, depth, kept):
        details = atrous(x, h, g, depth, kept)
        for level, phases in details.items():
            end = x.size - (h.size - 1) * (2**level - 1)
            for p, phase in enumerate(phases):  # phase p holds p, p + D, ...
                phase[max(0, -(-(end - p) // len(phases))) :] = np.nan
        return details
    return run


def test_band_energy_never_reads_the_zero_extension(monkeypatch):
    # a shift's interior stops before the rotation's wrapped samples, so
    # no coefficient it copies reads the zeros past the record's end
    monkeypatch.setattr(dsp, "_atrous", _nan_past_the_linear_end(dsp._atrous))
    rng = np.random.default_rng(43)
    for n in [*range(16, 401), 4 * dsp._BLOCK - 3, 4 * dsp._BLOCK + 3]:
        x = rng.standard_normal(n) * 100.0
        assert dsp._band_energy(x).tobytes() == _oracle_energy(x).tobytes(), n


@pytest.mark.parametrize("levels, detail_levels", [(2, (1, 2)), (3, (2, 3)), (5, (4, 5))])
def test_band_energy_matches_oracle_at_other_depths(levels, detail_levels, monkeypatch):
    # the depths and detail pairs that keep the band near its 360 Hz
    # place at 125, 250 and 1000 Hz: 4, 8 and 32 shifts
    monkeypatch.setattr(dsp, "LEVELS", levels)
    monkeypatch.setattr(dsp, "DETAIL_LEVELS", detail_levels)
    rng = np.random.default_rng(levels)
    for n in [*range(2**levels, 401), 1001, 4097, 20011]:
        x = rng.standard_normal(n) * 100.0
        want = dwt_oracle.band_energy(x, DB4, levels, detail_levels)
        assert dsp._band_energy(x).tobytes() == want.tobytes(), n


@pytest.mark.parametrize("n", [600, 700, 1000, 1001, 1003, 4001, 4096, 5000, 5003, 20011])
def test_band_energy_matches_oracle_at_assorted_lengths(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 100.0
    assert dsp._band_energy(x).tobytes() == _oracle_energy(x).tobytes()


@pytest.mark.parametrize("blocks, extra", [(2, -1), (2, 0), (2, 1), (4, 3)])
def test_band_energy_matches_oracle_around_the_synthesis_blocks(blocks, extra):
    # the band's last level runs (n + 1) // 2 outputs a parity in blocks
    # of _BLOCK, each from its own streamed slice of level 1
    n = blocks * dsp._BLOCK + extra
    x = np.random.default_rng(n).standard_normal(n) * 100.0
    assert dsp._band_energy(x).tobytes() == _oracle_energy(x).tobytes()


@pytest.mark.parametrize("block", [None, 5])
def test_streamed_slice_of_a_lowpass_level_equals_the_whole_level(block, monkeypatch):
    # samples [lo, hi) of a lowpass-only synthesis step, as _band_energy
    # streams its level-1 approximation, byte for byte those of the whole
    # level: random ranges starting and ending on both parities, the ends
    # among them; with _BLOCK at 5 a slice spans many blocks
    if block:
        monkeypatch.setattr(dsp, "_BLOCK", block)
    rng = np.random.default_rng(29)
    h, g, m = dsp._H, dsp._G, dsp._H.size
    for n in (16, 17, 101, 1000, 2 * dsp._BLOCK + 1):
        a = rng.standard_normal((n + m) // 2 + 1) * 100.0
        whole = dsp._synthesize(a, [None], [n], h, g)
        assert whole.tobytes() == dwt_oracle.synthesis_step(a, np.zeros_like(a), h, g, n).tobytes()
        ranges = [(0, n), (0, 1), (n - 1, n), (1, n), (0, n - 1), (1, n - 1)]
        ranges += [tuple(sorted(rng.choice(n + 1, 2, replace=False))) for _ in range(40)]
        assert {(lo % 2, hi % 2) for lo, hi in ranges} == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for lo, hi in ranges:
            got = dsp._synthesis_slice(a, None, h, g, lo, hi)
            assert got.tobytes() == whole[lo:hi].tobytes(), (n, lo, hi)


# ---------------------------------------------------------------------------
# detector filters: plain loops over the edge-extended series, independent
# of the numpy code


def _loop_extended(x, size):
    left = size // 2
    x = [float(v) for v in x]
    return [x[0]] * left + x + [x[-1]] * (size - 1 - left)


def _loop_moving_mean(x, size):
    # the first window summed in turn from +0.0, then a running sum taking
    # in the entering sample minus the leaving one, divided at output
    ext = _loop_extended(x, size)
    total = 0.0
    for v in ext[:size]:
        total += v
    out = [total / size]
    for i in range(1, len(x)):
        total += ext[i + size - 1] - ext[i - 1]
        out.append(total / size)
    return np.asarray(out)


def _loop_moving_max(x, size):
    ext = _loop_extended(x, size)
    return np.asarray([max(ext[i : i + size]) for i in range(len(x))])


def _filter_inputs(rng, n):
    # noise, small integers (ties everywhere) and constant runs of 7
    yield rng.standard_normal(n) * 100.0
    yield rng.integers(-3, 4, n).astype(np.float64)
    yield np.repeat(rng.standard_normal(n // 7 + 1), 7)[:n]


@pytest.mark.parametrize("size", [1, 3, 5, 55, 721, 901])
def test_moving_filters_match_loops(size, monkeypatch):
    rng = np.random.default_rng(size)
    lengths = [1, 2, 3, 4, 5, 54, 55, 56, 720, 721, 722, 901, 902, 2999, 3000]
    lengths += rng.integers(1, 3001, 4).tolist()
    for n in lengths:
        for x in _filter_inputs(rng, n):
            assert dsp._moving_mean(x, size).tobytes() == \
                _loop_moving_mean(x, size).tobytes(), (n, size)
            want = _loop_moving_max(x, size).tobytes()
            assert dsp._moving_max(x, size).tobytes() == want, (n, size)
            with monkeypatch.context() as patched:
                patched.setattr(dsp, "_BLOCK", 64)  # many blocks, most narrower than the window
                assert dsp._moving_max(x, size).tobytes() == want, (n, size)


def test_moving_mean_of_a_negative_zero_window_is_positive_zero():
    # a sum from +0.0 never gives -0.0, nor does scipy's
    for size in (1, 3, 7):
        for x in (np.full(5, -0.0), np.array([-0.0, -0.0, -0.0, -0.0, 4.0, -2.0])):
            got = dsp._moving_mean(x, size)
            assert got.tobytes() == _loop_moving_mean(x, size).tobytes(), (size, x)
            assert not np.signbit(got[0])


def test_moving_max_of_tied_signed_zeros_is_zero():
    # of tied zeros of both signs either may come out; the detector only
    # compares its threshold, where -0.0 == +0.0
    x = np.array([-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0])
    for size in (1, 3, 5, 9):
        assert np.array_equal(dsp._moving_max(x, size), _loop_moving_max(x, size))


def test_moving_filters_match_scipy_byte_for_byte():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(12)
    for _ in range(300):
        n, size = (int(v) for v in rng.integers(1, [3001, 1000]))  # size > n too
        for x in _filter_inputs(rng, n):
            want = ndimage.uniform_filter1d(x, size, mode="nearest")
            assert dsp._moving_mean(x, size).tobytes() == want.tobytes(), (n, size)
            want = ndimage.maximum_filter1d(x, size, mode="nearest")
            assert dsp._moving_max(x, size).tobytes() == want.tobytes(), (n, size)


@pytest.mark.parametrize("record_no", [0, 1])
def test_detector_filters_match_scipy_on_full_benchmark_records(record_no, monkeypatch):
    # the band energy of the whole 30-minute record and its smoothing
    # widths, as detect_r_peaks runs them
    ndimage = pytest.importorskip("scipy.ndimage")
    records = _benchmark_records(monkeypatch)
    samples, _, _ = records.synthesize(1, record_no)
    energy = dsp._band_energy(samples[0].astype(np.float64))
    smooth = int(round(dsp.INTEGRATE_MS / 1000.0 * records.FS)) | 1
    win = int(round(dsp.WINDOW_SECONDS * records.FS)) | 1
    feature = dsp._moving_mean(energy, smooth)
    want = ndimage.uniform_filter1d(energy, smooth, mode="nearest")
    assert feature.tobytes() == want.tobytes()
    want = ndimage.maximum_filter1d(feature, win, mode="nearest")
    assert dsp._moving_max(feature, win).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# peak detection


def _triangle_train(n, period, first_peak, fs=500.0, amplitude=1000.0):
    # ~100 ms wide triangular complexes; wide enough that their energy
    # sits firmly in detail levels 3-4 at any decimation alignment
    half_width = int(round(0.05 * fs))
    x = np.zeros(n)
    peaks = []
    p = first_peak
    while p < n - half_width:
        for off in range(-half_width + 1, half_width):
            x[p + off] += amplitude * (1.0 - abs(off) / half_width)
        peaks.append(p)
        p += period
    return x, peaks


def test_pulse_train_period_345_at_500hz():
    x, truth = _triangle_train(4000, 345, 200)
    train = detect_r_peaks(x, fs=500.0)
    assert train.r_indices.tolist() == truth
    gaps = np.diff(train.r_indices)
    assert np.all(gaps >= 0.2 * 500.0)


def test_flat_signals_give_no_peaks():
    assert len(detect_r_peaks(np.zeros(2000), fs=360.0)) == 0
    assert len(detect_r_peaks(np.full(2000, 5.0), fs=360.0)) == 0


def test_noisy_pulse_train_within_three_samples():
    x, truth = _triangle_train(4000, 345, 200)
    p_signal = float(np.mean(x * x))
    sigma = np.sqrt(p_signal / 10.0 ** (20.0 / 10.0))  # SNR 20 dB
    rng = np.random.default_rng(42)
    noisy = x + rng.normal(0.0, sigma, size=x.size)
    train = detect_r_peaks(noisy, fs=500.0)
    assert len(train) == len(truth)
    assert np.max(np.abs(train.r_indices - np.asarray(truth))) <= 3


def test_refractory_suppresses_close_peaks():
    # two complexes 60 samples apart, inside the 200 ms window at
    # 500 Hz; whether their energy runs merge or not, at most one
    # detection may survive and it must sit on one of the bumps
    x = np.zeros(2000)
    for p in (300, 360):
        for off in range(-24, 25):
            x[p + off] += 1000.0 * (1.0 - abs(off) / 25.0)
    train = detect_r_peaks(x, fs=500.0)
    assert len(train) == 1
    peak = int(train.r_indices[0])
    assert 276 <= peak <= 384


def test_detector_input_validation():
    with pytest.raises(ValueError):
        detect_r_peaks(np.zeros(0), fs=360.0)
    with pytest.raises(ValueError):
        detect_r_peaks(np.zeros(100), fs=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_detector_rejects_non_finite_samples(bad):
    x, truth = _triangle_train(4000, 345, 200)
    assert len(detect_r_peaks(x, fs=500.0)) == len(truth)
    x[1234] = bad
    x[3000] = bad
    with pytest.raises(ValueError, match=r"signal sample 1234 is not finite"):
        detect_r_peaks(x, fs=500.0)


def test_peak_train_invariants():
    with pytest.raises(ValueError):
        PeakTrain(np.asarray([5, 5]), 360.0)
    with pytest.raises(ValueError):
        PeakTrain(np.asarray([5, 4]), 360.0)
    with pytest.raises(ValueError):
        PeakTrain(np.asarray([1, 2]), 0.0)
    assert len(PeakTrain(np.asarray([], dtype=np.int64), 360.0)) == 0


@pytest.mark.parametrize("fs", [np.nan, np.inf])
def test_a_rate_that_is_not_finite_is_rejected(fs):
    # an infinite rate once reached int(round(...)) in the detector: OverflowError
    with pytest.raises(ValueError, match="sampling frequency must be positive and finite"):
        detect_r_peaks(np.zeros(100), fs=fs)
    with pytest.raises(ValueError, match="sampling frequency must be positive and finite"):
        PeakTrain(np.asarray([1, 2]), fs)


@pytest.mark.parametrize("bad, shown", [(1.5, "1.5"), (math.nan, "nan"), (math.inf, "inf"),
                                        (-math.inf, "-inf")])
def test_peak_train_rejects_a_peak_that_is_not_an_integer(bad, shown):
    # the first such value is named; none is truncated to an index
    with pytest.raises(ValueError, match=rf"^peak index {re.escape(shown)} is not an integer$"):
        PeakTrain([1.0, bad, 9.5], 360.0)
    # integral floats and any integer dtype become int64 indices
    for ok in ([1.0, 2.0], np.array([1, 2], dtype=np.int32), np.array([1.0, 2.0])):
        idx = PeakTrain(ok, 360.0).r_indices
        assert idx.dtype == np.int64 and idx.tolist() == [1, 2]
    # an int64 array is taken as is, with no copy or check
    idx = np.array([1, 2], dtype=np.int64)
    assert PeakTrain(idx, 360.0).r_indices is idx


# ---------------------------------------------------------------------------
# trigger and refine step against the per-run loop


def _loop_refined_triggers(feature, active, x, radius):
    """The per-run loop the detector used to run, kept as the reference."""
    padded = np.concatenate(([False], active, [False]))
    changes = np.flatnonzero(np.diff(padded.astype(np.int8)))
    candidates = []
    for s, e in zip(changes[0::2], changes[1::2]):
        trigger = s + int(np.argmax(feature[s:e]))
        lo = max(0, trigger - radius)
        hi = min(x.size, trigger + radius + 1)
        candidates.append(lo + int(np.argmax(x[lo:hi])))
    return candidates


def _assert_refined_triggers_match_loop(feature, active, x, radius):
    got = dsp._refined_triggers(feature, active, x, radius)
    assert got.tolist() == _loop_refined_triggers(feature, active, x, radius)


def test_refined_triggers_match_loop_at_the_record_ends():
    n, radius = 40, 5
    x = np.zeros(n)
    x[[0, 3, 8, 18, 24, 36, 39]] = [5.0, 9.0, 9.0, 2.0, 2.0, 9.0, 4.0]  # raw ties
    feature = np.zeros(n)
    feature[[1, 2, 37]] = 7.0  # trigger near each end, with a tie
    feature[20:23] = 3.0       # a plateau: the first sample triggers
    active = np.zeros(n, dtype=bool)
    active[0:4] = True         # a run at index 0
    active[20:23] = True
    active[34:] = True         # a run that ends at n
    _assert_refined_triggers_match_loop(feature, active, x, radius)
    assert dsp._refined_triggers(feature, active, x, radius).tolist() == [3, 18, 36]
    for r in (0, 1, 2, 39, 50):  # windows from one sample to wider than the record
        _assert_refined_triggers_match_loop(feature, active, x, r)


def test_refined_triggers_match_loop_on_random_runs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        # coarse values, so both maxima often tie
        feature = rng.integers(0, 4, size=n).astype(np.float64)
        x = rng.integers(-3, 4, size=n).astype(np.float64)
        active = rng.random(n) < rng.uniform(0.1, 0.9)
        _assert_refined_triggers_match_loop(feature, active, x, int(rng.integers(0, 10)))


def test_refined_triggers_without_a_run_are_empty():
    got = dsp._refined_triggers(np.ones(10), np.zeros(10, dtype=bool), np.ones(10), 3)
    assert got.size == 0


@pytest.mark.parametrize("make", [classifier_record, dropout_record])
def test_refined_triggers_match_loop_on_fixture_records(make, tmp_path, monkeypatch):
    record = ingest_record(make(tmp_path, "rec"))
    calls = []

    def checked(feature, active, x, radius):
        got = refined(feature, active, x, radius)
        assert got.tolist() == _loop_refined_triggers(feature, active, x, radius)
        calls.append(int(np.count_nonzero(active)))
        return got

    refined = dsp._refined_triggers
    monkeypatch.setattr(dsp, "_refined_triggers", checked)
    detect_r_peaks(record.samples[0], record.header.sampling_frequency)
    assert len(calls) == 1 and calls[0] > 0
