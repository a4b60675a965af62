"""Activation function checks: exact values, structure, and fixed-point fidelity."""

import math

import numpy as np
import pytest

import fixed_oracle as oracle
from ecgarr.activation import (
    LOOKUP_MAX_FRACTION_BITS,
    PLA_BORDERS,
    PLA_OFFSETS,
    PLA_SHIFTS,
    PLA_SLOPES,
    SATURATION_BORDER,
    _lookup_table,
    _pla_segments,
    _platanh_and_slope,
    fixed_activations,
    ntanh_fixed_raw_array,
    platanh,
    platanh_derivative,
    platanh_fixed_raw_array,
    tanh_exact,
)
from ecgarr.fixedpoint import QFormat, quantize_raw_array
from ecgarr.mlp import MlpModel, forward_batch

Q24_12 = QFormat(24, 12)


def _segment_value(i, x):
    return x * PLA_SLOPES[i] + PLA_OFFSETS[i]


def test_tanh_exact_reference_value():
    assert tanh_exact(0.5) == pytest.approx(0.462117, abs=5e-7)
    assert tanh_exact(0.0) == 0.0


def test_platanh_known_points():
    assert platanh(0.0) == 0.0
    assert platanh(6.0) == 1.0
    assert platanh(-6.0) == -1.0
    assert platanh(0.5) == 0.5
    assert platanh(1.0) == 0.75
    assert abs(platanh(0.5) - tanh_exact(0.5)) == pytest.approx(0.03788, abs=1e-4)


def test_platanh_exact_one_at_saturation_border():
    assert platanh(SATURATION_BORDER) == 1.0
    assert platanh(-SATURATION_BORDER) == -1.0
    # The outermost linear expression itself meets 1 at the border.
    top_linear = len(PLA_BORDERS) - 1
    assert _segment_value(top_linear, SATURATION_BORDER) == pytest.approx(1.0, abs=1e-15)


def test_segment_table_shape():
    assert len(PLA_BORDERS) == 12
    assert np.all(np.diff(PLA_BORDERS) > 0)
    assert PLA_BORDERS[-1] == SATURATION_BORDER
    assert len(PLA_SHIFTS) == len(PLA_SLOPES) == len(PLA_OFFSETS) == 13
    # Power-of-two slopes everywhere but the two constant ends.
    assert PLA_SHIFTS[0] is None and PLA_SHIFTS[-1] is None
    assert PLA_SLOPES.tolist() == [0.0] + [2.0 ** -s for s in PLA_SHIFTS[1:-1]] + [0.0]
    assert PLA_OFFSETS[0] == -1.0 and PLA_OFFSETS[-1] == 1.0
    # Odd symmetry of the table constants.
    assert PLA_BORDERS.tolist() == (-PLA_BORDERS[::-1]).tolist()
    assert PLA_OFFSETS.tolist() == (-PLA_OFFSETS[::-1]).tolist()
    assert PLA_SHIFTS == PLA_SHIFTS[::-1]


def test_continuity_at_all_borders():
    for i, x in enumerate(PLA_BORDERS):
        gap = abs(_segment_value(i, x) - _segment_value(i + 1, x))
        assert gap <= 1e-9, f"discontinuity {gap} at border {x}"


def test_odd_symmetry_randomized():
    rng = np.random.default_rng(17)
    x = rng.uniform(-8, 8, size=20000)
    np.testing.assert_array_equal(platanh(-x), -platanh(x))


def test_monotone_and_bounded():
    rng = np.random.default_rng(23)
    x = np.sort(rng.uniform(-10, 10, size=20000))
    y = platanh(x)
    assert np.all(np.diff(y) >= 0)
    assert np.all(np.abs(y) <= 1.0)
    # Including right at the representability edge of the saturation border.
    eps_in = np.nextafter(SATURATION_BORDER, 0.0)
    assert platanh(eps_in) <= 1.0


def test_max_error_on_grid():
    x = np.arange(-6.0, 6.0 + 1e-9, 1e-4)
    err = np.abs(platanh(x) - np.tanh(x))
    i = int(np.argmax(err))
    assert err[i] == pytest.approx(0.03788, abs=1e-4)
    assert abs(abs(x[i]) - 0.5) < 1e-9


def test_platanh_scalar_and_array_agree():
    xs = [-7.0, -1.2, 0.0, 0.49, 0.5, 0.51, 2.0, 5.58, 9.9]
    arr = platanh(np.array(xs))
    for v, a in zip(xs, arr):
        assert platanh(v) == a


def test_platanh_derivative_values():
    assert platanh_derivative(1.0) == 0.5
    assert platanh_derivative(0.0) == 1.0
    assert platanh_derivative(2.5) == 2.0 ** -5
    assert platanh_derivative(-2.5) == 2.0 ** -5
    assert platanh_derivative(7.0) == 0.0
    # Left-segment rule at borders.
    assert platanh_derivative(0.5) == 1.0
    assert platanh_derivative(1.125) == 0.5
    assert platanh_derivative(SATURATION_BORDER) == 2.0 ** -12
    assert platanh_derivative(-SATURATION_BORDER) == 0.0


def _ntanh(x, activation):
    """The classifier's output layer, (tanh + 1) / 2 in the given mode,
    at each x and -x: with zero weights, the output biases x and -x are
    the outputs' whole inputs."""
    return np.array([
        forward_batch(MlpModel(w_hidden=np.zeros((1, 1)), b_hidden=np.zeros(1),
                               w_out=np.zeros((2, 1)), b_out=[v, -v], activation=activation),
                      np.zeros((1, 1)))[0]
        for v in x])


def test_ntanh_values():
    assert _ntanh([0.0], "exact").tolist() == [[0.5, 0.5]]
    assert _ntanh([10.0], "pla").tolist() == [[1.0, 0.0]]
    rng = np.random.default_rng(29)
    for activation, ref in (("exact", np.tanh), ("pla", platanh)):
        x = rng.uniform(-6, 6, 500)
        out = _ntanh(x, activation)
        assert out[:, 0] == pytest.approx((ref(x) + 1.0) / 2.0, abs=1e-12)
        assert out.sum(axis=1) == pytest.approx(np.ones(500), abs=1e-12)


def _raw(values, fmt=Q24_12):
    return quantize_raw_array(np.asarray(values, dtype=float), fmt)


def test_platanh_fixed_known_points():
    got = platanh_fixed_raw_array(np.array([0, 8 * 4096, -8 * 4096, 1000]), Q24_12)
    # The identity segment passes raw values through untouched.
    assert got.tolist() == [0, 4096, -4096, 1000]


def test_platanh_fixed_tracks_real_curve():
    rng = np.random.default_rng(31)
    raws = _raw(rng.uniform(-8, 8, size=10000))
    got = platanh_fixed_raw_array(raws, Q24_12) / 4096
    assert np.all(np.abs(got - platanh(raws / 4096)) <= 1.5 * 2.0 ** -12)


def test_platanh_fixed_border_membership():
    def pla(raw):
        return int(platanh_fixed_raw_array(np.array([raw]), Q24_12)[0])

    # The quantized saturation border itself maps to exactly +1.
    assert pla(int(_raw(SATURATION_BORDER))) == 4096
    # Further below the border the 1/4096-slope segment is visible again:
    # rne(22000 >> 12) = 5, plus quantized offset 4090.
    assert pla(22000) == 4095
    # Interior border raw values take the segment they close from above.
    f_raw = int(_raw(0.5))
    assert pla(f_raw) == f_raw  # identity side
    # x/2 + 0.25 at raw 4608: 2304 + 1024 = 3328
    assert pla(int(_raw(1.125))) == 3328


def test_platanh_fixed_continuity_one_ulp_slack():
    for border in (5.58, 3.02, 2.02, 1.475, 1.125, 0.5):
        for sign in (1, -1):
            b_raw = int(_raw(sign * border))
            lo, mid, hi = platanh_fixed_raw_array(
                np.array([b_raw - 1, b_raw, b_raw + 1]), Q24_12).tolist()
            assert abs(mid - lo) <= 2
            assert abs(hi - mid) <= 2


def test_platanh_fixed_near_monotone_at_borders():
    # Independent rounding of the per-segment offsets can make the
    # quantized curve dip by one count at a border crossing (the real
    # curve is exactly continuous there, the rounded offsets are not).
    # Anything beyond a single-count dip would be a table bug.
    for border in (5.58, 3.02, 2.02, 1.475, 1.125, 0.5):
        for sign in (1, -1):
            b_raw = int(_raw(sign * border))
            raws = platanh_fixed_raw_array(np.arange(b_raw - 8, b_raw + 9), Q24_12).tolist()
            assert all(y2 >= y1 - 1 for y1, y2 in zip(raws, raws[1:]))
            assert raws[-1] >= raws[0]


def test_ntanh_fixed():
    got = ntanh_fixed_raw_array(_raw([0.0, 8.0, -8.0]), Q24_12)
    assert got.tolist() == [2048, 4096, 0]
    rng = np.random.default_rng(37)
    raws = _raw(rng.uniform(-8, 8, size=2000))
    got = ntanh_fixed_raw_array(raws, Q24_12) / 4096
    want = (platanh(raws / 4096) + 1.0) / 2.0
    assert np.all(np.abs(got - want) <= 2.0 ** -12)


def test_platanh_fixed_other_formats():
    for fmt in (QFormat(16, 8), QFormat(24, 6), QFormat(24, 14), QFormat(32, 16)):
        one = int(_raw(1.0, fmt))
        rng = np.random.default_rng(fmt.fraction_bits)
        raws = _raw(rng.uniform(-8, 8, size=500), fmt)
        y = platanh_fixed_raw_array(raws, fmt)
        assert np.all((-one <= y) & (y <= one))
        err = np.abs(y / fmt.scale - platanh(raws / fmt.scale))
        assert np.all(err <= 1.5 * 2.0 ** -fmt.fraction_bits)


# ---------------------------------------------------------------------------
# the vectorized fixed paths against the pure-integer oracle


def _assert_matches_oracle(raws, fmt):
    raws = np.asarray(raws, dtype=np.int64)
    assert platanh_fixed_raw_array(raws, fmt).tolist() == [
        oracle.platanh(int(r), fmt) for r in raws]
    assert ntanh_fixed_raw_array(raws, fmt).tolist() == [
        oracle.ntanh(int(r), fmt) for r in raws]


def test_platanh_fixed_raw_array_matches_scalar():
    rng = np.random.default_rng(31)
    for fmt in (Q24_12, QFormat(16, 8), QFormat(24, 14)):
        span = min(int(8 * fmt.scale), fmt.raw_max)
        raws = rng.integers(-span, span + 1, size=20_000)
        got = platanh_fixed_raw_array(raws, fmt)
        assert got.tolist() == [oracle.platanh(int(r), fmt) for r in raws]


def test_ntanh_fixed_raw_array_matches_scalar():
    rng = np.random.default_rng(32)
    raws = rng.integers(-30_000, 30_001, size=10_000)
    got = ntanh_fixed_raw_array(raws, Q24_12)
    assert got.tolist() == [oracle.ntanh(int(r), Q24_12) for r in raws]


def test_fixed_exhaustive_q24_12_against_oracle():
    raws = np.arange(-6 * 4096, 6 * 4096 + 1)
    assert raws.size == 49_153
    _assert_matches_oracle(raws, Q24_12)


@pytest.mark.parametrize("fmt", [Q24_12, QFormat(16, 8), QFormat(24, 6),
                                 QFormat(24, 14), QFormat(32, 16)],
                         ids=lambda f: f"Q{f.total_bits}.{f.fraction_bits}")
def test_fixed_saturation_tails_against_oracle(fmt):
    one, eight = fmt.scale, 8 * fmt.scale
    tails = [fmt.raw_min, fmt.raw_min + 1, fmt.raw_max - 1, fmt.raw_max,
             eight, -eight, eight + 1, -eight - 1]
    _assert_matches_oracle(tails, fmt)
    assert platanh_fixed_raw_array(tails, fmt).tolist() == [
        -one, -one, one, one, one, -one, one, -one]


def test_fixed_other_formats_against_oracle():
    q16_8 = QFormat(16, 8)
    _assert_matches_oracle(np.arange(q16_8.raw_min, q16_8.raw_max + 1), q16_8)
    q24_6 = QFormat(24, 6)
    _assert_matches_oracle(np.arange(-8 * 64, 8 * 64 + 1), q24_6)
    rng = np.random.default_rng(41)
    for fmt in (QFormat(24, 14), QFormat(32, 16)):
        span = 8 * fmt.scale
        borders = _raw([b * s for b in (0.5, 1.125, 1.475, 2.02, 3.02, 5.58)
                        for s in (1, -1)], fmt)
        near = (borders[:, None] + np.arange(-64, 65)).ravel()
        _assert_matches_oracle(np.concatenate([
            near, rng.integers(-span, span + 1, size=20_000)]), fmt)


def test_fixed_every_small_format_against_oracle():
    # Formats too narrow to hold 5.58 saturate several borders onto one raw
    # value; the saturation border must still win from its raw value up.
    formats = [QFormat(w, f) for w in range(2, 13) for f in range(w)] + [QFormat(16, 14)]
    for fmt in formats:
        _assert_matches_oracle(np.arange(fmt.raw_min, fmt.raw_max + 1), fmt)


@pytest.mark.parametrize("fmt", [Q24_12, QFormat(16, 8)],
                         ids=lambda f: f"Q{f.total_bits}.{f.fraction_bits}")
def test_lookup_table_exhaustive_against_oracle(fmt):
    # the table spans exactly the raws from -5.58 to +5.58; past them the
    # lookup clamps onto its ends, out to raws far beyond the format
    edge = oracle.to_fixed(oracle.SATURATION, fmt)
    probe = list(range(-edge - 2, edge + 3))
    want = {name: [func(r, fmt) for r in probe]
            for name, func in (("platanh", oracle.platanh), ("ntanh", oracle.ntanh))}
    stored_edge, tanh, ntanh = _lookup_table(fmt)
    assert stored_edge == edge
    assert tanh.tolist() == want["platanh"][2:-2]
    assert ntanh.tolist() == want["ntanh"][2:-2]
    far = [-(1 << 40), 1 << 40]
    raws = np.array(probe + far, dtype=np.int64)
    for func, name in zip(fixed_activations(fmt), ("platanh", "ntanh")):
        oracle_func = getattr(oracle, name)
        assert func(raws).tolist() == want[name] + [oracle_func(r, fmt) for r in far]


def test_no_lookup_table_above_the_rule():
    fmt = QFormat(30, LOOKUP_MAX_FRACTION_BITS + 4)
    built = _lookup_table.cache_info().currsize
    pla, npla = fixed_activations(fmt)
    assert _lookup_table.cache_info().currsize == built
    raws = np.array([-(1 << 40), -3 * fmt.scale, 5, 2 * fmt.scale, 1 << 40])
    assert pla(raws).tolist() == platanh_fixed_raw_array(raws, fmt).tolist()
    assert npla(raws).tolist() == ntanh_fixed_raw_array(raws, fmt).tolist()


# ---------------------------------------------------------------------------
# the real path at its edges


def _edge_points():
    points = [0.0, -0.0, math.inf, -math.inf]
    for b in PLA_BORDERS:
        points += [b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf)]
    return points


def test_platanh_real_edges_against_oracle():
    points = _edge_points()
    got = platanh(np.array(points))
    want = [oracle.platanh_real(x) for x in points]
    for x, g, w in zip(points, got, want):
        assert g == w and math.copysign(1, g) == math.copysign(1, w), x
        assert platanh(x) == g and math.copysign(1, platanh(x)) == math.copysign(1, g)
    assert math.copysign(1, platanh(-0.0)) == -1.0


def test_platanh_derivative_edges_against_oracle():
    points = _edge_points()
    got = platanh_derivative(np.array(points))
    assert got.tolist() == [oracle.platanh_slope(x) for x in points]
    assert [platanh_derivative(x) for x in points] == got.tolist()


def _searchsorted_pla(x):
    """Value and slope through np.searchsorted, the lookup the fused one replaced."""
    seg = np.searchsorted(PLA_BORDERS, x)
    clipped = np.clip(x, -SATURATION_BORDER, SATURATION_BORDER)
    value = np.clip(PLA_SLOPES[seg] * clipped + PLA_OFFSETS[seg], -1.0, 1.0)
    return seg, value, PLA_SLOPES[seg]


def test_fused_lookup_matches_searchsorted():
    rng = np.random.default_rng(5)
    edges = np.array(_edge_points() + [math.nan, -math.nan])
    wide = rng.normal(0.0, 3.0, size=(300, 6))
    wide[::17, 2] = np.nan
    arrays = [edges, edges.reshape(-1, 1), wide, rng.uniform(-8, 8, size=(40, 7, 3)),
              np.array(0.5), np.array(math.nan), np.zeros((0, 6)),
              # the borders broadcast over any layout: Fortran order, a strided view, one row
              np.asfortranarray(wide), wide[:, ::2], wide[:1]]
    read_only = wide.copy()
    read_only.setflags(write=False)
    for x in arrays + [read_only]:
        before = x.tobytes()
        seg, value, slope = _searchsorted_pla(x)
        got_seg = _pla_segments(x)
        # intp is the documented dtype: take reads it without converting
        assert got_seg.dtype == np.intp and got_seg.shape == np.shape(x)
        assert np.array_equal(got_seg, seg)
        got_value, got_slope = _platanh_and_slope(x)
        # tobytes compares NaN payloads and the sign of zero too
        assert got_value.tobytes() == value.tobytes()
        assert got_slope.tobytes() == slope.tobytes()
        assert np.asarray(platanh(x)).tobytes() == value.tobytes()
        assert np.asarray(platanh_derivative(x)).tobytes() == slope.tobytes()
        # the lookup only reads its input, read-only or not
        assert x.tobytes() == before
    # a 0-d input gives a 0-d value, and the public functions a Python float
    value, slope = _platanh_and_slope(np.array(0.5))
    assert np.shape(value) == np.shape(slope) == ()
    assert (float(value), float(slope)) == (0.5, 1.0)
    assert type(platanh(0.5)) is float and platanh(0.5) == 0.5
    assert type(platanh_derivative(0.5)) is float and platanh_derivative(0.5) == 1.0


def test_fused_lookup_against_oracle():
    rng = np.random.default_rng(6)
    points = np.concatenate([_edge_points(), rng.uniform(-7, 7, size=2000)])
    value, slope = _platanh_and_slope(points)
    assert value.tolist() == [oracle.platanh_real(x) for x in points]
    assert slope.tolist() == [oracle.platanh_slope(x) for x in points]
    assert [math.copysign(1, v) for v in value[:2]] == [1.0, -1.0]
