"""Q-format arithmetic checks against exact integer/real oracles."""

import numpy as np
import pytest

import fixed_oracle as oracle
from ecgarr.fixedpoint import (
    QFormat,
    accumulator_bits,
    check_accumulator,
    quantize_raw_array,
    rne_shift_array,
    saturate_array,
)
from ecgarr.mlp import MlpModel, forward_batch

Q24_12 = QFormat(24, 12)


def _random_model(rng, fmt, n_in=12, n_hidden=6, n_out=2):
    """A fixed-mode model with random raw weights in +-2.0."""
    def param(*shape):
        return rng.integers(-2 * fmt.scale, 2 * fmt.scale + 1, size=shape) / fmt.scale

    return MlpModel(w_hidden=param(n_hidden, n_in), b_hidden=param(n_hidden),
                    w_out=param(n_out, n_hidden), b_out=param(n_out), q_format=fmt)


def test_format_properties():
    assert Q24_12.scale == 4096
    assert Q24_12.raw_min == -(2 ** 23)
    assert Q24_12.raw_max == 2 ** 23 - 1
    assert Q24_12.max_value == (2 ** 23 - 1) / 4096


def test_format_validation():
    with pytest.raises(ValueError):
        QFormat(1, 0)
    with pytest.raises(ValueError):
        QFormat(8, 8)
    with pytest.raises(ValueError):
        QFormat(8, -1)


def test_to_fixed_known_values():
    got = quantize_raw_array([1.0, -0.25, 3000.0, -3000.0], Q24_12)
    assert got.tolist() == [4096, -1024, 2 ** 23 - 1, -(2 ** 23)]
    assert got[2] / Q24_12.scale == pytest.approx(2047.999755859375)


def test_to_fixed_ties_round_to_even():
    # 1.5/4096 sits exactly between raws 1 and 2; even wins.
    ties = np.array([1.5, 2.5, -1.5, 0.5]) / 4096
    assert quantize_raw_array(ties, Q24_12).tolist() == [2, 2, -2, 0]


def test_to_fixed_rejects_nan_saturates_inf():
    with pytest.raises(ValueError):
        quantize_raw_array(float("nan"), Q24_12)
    got = quantize_raw_array([float("inf"), float("-inf")], Q24_12)
    assert got.tolist() == [Q24_12.raw_max, Q24_12.raw_min]


def test_quantization_error_bound():
    rng = np.random.default_rng(42)
    x = rng.uniform(-2047.9, 2047.9, size=2000)
    err = np.abs(quantize_raw_array(x, Q24_12) / 4096 - x)
    assert np.all(err <= 2.0 ** -13 + 1e-15)


def test_rne_shift_matches_integer_oracle():
    rng = np.random.default_rng(7)
    raws = rng.integers(-(2 ** 30), 2 ** 30, size=2000)
    shifts = rng.integers(0, 16, size=2000)  # one shift per element
    got = rne_shift_array(raws, shifts)
    assert got.tolist() == [oracle.rne(int(r), int(k)) for r, k in zip(raws, shifts)]


def test_fx_mul_known_and_randomized():
    """A Q-format multiply: raw product, one rounding shift, saturation."""
    def mul(a, b):
        return saturate_array(rne_shift_array(a * b, 12), Q24_12)

    half = quantize_raw_array(0.5, Q24_12)
    assert mul(half, half) == 1024
    rng = np.random.default_rng(3)
    a = quantize_raw_array(rng.uniform(-30, 30, size=3000), Q24_12)
    b = quantize_raw_array(rng.uniform(-30, 30, size=3000), Q24_12)
    got = mul(a, b) / 4096
    assert np.all(np.abs(got - (a / 4096) * (b / 4096)) <= 2.0 ** -12)


def test_fx_shr():
    assert rne_shift_array(4096, 1) == 2048
    assert rne_shift_array(4096, 0) == 4096
    # raw 3 >> 1 has remainder exactly half: rounds to even quotient 2.
    assert rne_shift_array([3, -3], 1).tolist() == [2, -2]
    with pytest.raises(ValueError):
        rne_shift_array(4096, -1)
    with pytest.raises(ValueError):
        rne_shift_array([4096, 4096], [1, -1])


def test_fx_add_saturates():
    """Raw sums saturate to the format's range."""
    top, bottom = Q24_12.raw_max, Q24_12.raw_min
    sums = np.array([top + top, bottom + bottom, top + bottom])
    assert saturate_array(sums, Q24_12).tolist() == [top, bottom, -1]


def test_saturation_idempotent():
    fmt = QFormat(8, 4)
    top = np.int64(fmt.raw_max)
    for _ in range(4):
        top = saturate_array(top + 16, fmt)  # + 1.0
        assert top == fmt.raw_max
        top = saturate_array(rne_shift_array(top * 48, 4), fmt)  # * 3.0
        assert top == fmt.raw_max


# 2 (W - 1) bits per product, and the bit length of the largest fan-in
# plus one for its products and the bias: 4 more on 12-6-2, 7 for up to
# 126 hidden units.  The kernel takes up to 53 bits.
@pytest.mark.parametrize("layer_sizes, total_bits, bits", [
    pytest.param((12, 6, 2), 25, 52, id="25-52"),
    pytest.param((12, 6, 2), 26, 54, id="26-54"),
    pytest.param((12, 6, 2), 30, 62, id="30-62"),
    pytest.param((12, 6, 2), 31, 64, id="31-64"),
    pytest.param((12, 126, 2), 24, 53, id="126-hidden-53"),
    pytest.param((12, 127, 2), 24, 54, id="127-hidden-54")])
def test_accumulator_bits_on_the_12_6_2_net(layer_sizes, total_bits, bits):
    fmt = QFormat(total_bits, 12)
    assert accumulator_bits(fmt, layer_sizes) == bits
    if bits <= 53:
        check_accumulator(fmt, layer_sizes)
    else:
        with pytest.raises(ValueError, match=f"need {bits} bits .* past the 53 bits"):
            check_accumulator(fmt, layer_sizes)


def test_commutativity():
    """The wide accumulator is exact, so input order cannot change a result."""
    rng = np.random.default_rng(11)
    model = _random_model(rng, Q24_12)
    x = rng.uniform(-40, 40, size=(500, 12))
    perm = rng.permutation(12)
    swapped = MlpModel(w_hidden=model.w_hidden[:, perm], b_hidden=model.b_hidden,
                       w_out=model.w_out, b_out=model.b_out, q_format=Q24_12)
    assert np.array_equal(forward_batch(swapped, x[:, perm]), forward_batch(model, x))


def test_add_associative_without_saturation():
    """The bias joins the accumulator exactly: it equals an input of 1.0."""
    rng = np.random.default_rng(13)
    model = _random_model(rng, Q24_12)
    x = rng.uniform(-10, 10, size=(500, 12))
    folded = MlpModel(w_hidden=np.column_stack([model.w_hidden, model.b_hidden]),
                      b_hidden=np.zeros(6), w_out=model.w_out, b_out=model.b_out,
                      q_format=Q24_12)
    ones = np.ones((500, 1))
    assert np.array_equal(forward_batch(folded, np.hstack([x, ones])),
                          forward_batch(model, x))


# ---------------------------------------------------------------------------
# vectorized raw helpers


def test_rne_shift_array_matches_scalar():
    rng = np.random.default_rng(21)
    raws = rng.integers(-(1 << 40), 1 << 40, size=5000)
    for k in (0, 1, 5, 12):
        got = rne_shift_array(raws, k)
        assert got.tolist() == [oracle.rne(int(r), k) for r in raws]


def test_rne_shift_array_tie_cases():
    # 6144 = 1.5 * 4096: tie rounds to even quotient 2
    got = rne_shift_array(np.asarray([6144, 2048, -2048, -6144]), 12)
    assert got.tolist() == [2, 0, 0, -2]


def test_saturate_array_matches_scalar():
    fmt = QFormat(8, 4)
    raws = np.asarray([-500, -129, -128, 0, 127, 128, 500])
    assert saturate_array(raws, fmt).tolist() == [oracle.saturate(int(r), fmt) for r in raws]


def test_quantize_raw_array_matches_to_fixed():
    fmt = QFormat(24, 12)
    rng = np.random.default_rng(22)
    xs = np.concatenate([
        rng.uniform(-3000, 3000, size=2000),
        np.asarray([1.5 / 4096, 2.5 / 4096, 0.5 / 4096, -1.5 / 4096]),  # ties
        np.asarray([np.inf, -np.inf, 0.0, 2047.99975, -2048.0]),
    ])
    got = quantize_raw_array(xs, fmt)
    want = [oracle.to_fixed(float(x), fmt) for x in xs]
    assert got.tolist() == want
    with pytest.raises(ValueError):
        quantize_raw_array(np.asarray([0.0, np.nan]), fmt)
