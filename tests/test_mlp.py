"""Classifier network: forward passes, gradients, rprop, quantization."""

import functools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ecgarr
import fixed_oracle as oracle
import rprop_oracle
import train_oracle
from ecgarr.activation import _lookup_table, platanh, platanh_derivative
from ecgarr.fixedpoint import QFormat, quantize_raw_array
from ecgarr.mlp import (
    ACTIVATIONS,
    MlpModel,
    QuantizationWarning,
    balance_classes,
    forward,
    forward_batch,
    gradients,
    init_model,
    load_model,
    mse,
    predict,
    predict_batch,
    quantize_model,
    rprop_step,
    save_model,
    train,
)
from ecgarr.mlp import _column_sums

PLA_BORDERS = (0.5, 1.125, 1.475, 2.02, 3.02, 5.58)


def mode_id(value):
    """A test id naming an activation mode by the layer pair its model
    files carry, for example platanh-ntanh_pla."""
    return "-".join(ACTIVATIONS[value][1]) if value in ACTIVATIONS else None


def zero_model(activation="pla", sizes=(12, 6, 2)):
    n_in, n_hid, n_out = sizes
    return MlpModel(
        w_hidden=np.zeros((n_hid, n_in)),
        b_hidden=np.zeros(n_hid),
        w_out=np.zeros((n_out, n_hid)),
        b_out=np.zeros(n_out),
        activation=activation,
    )


def blob_dataset(n_per_class=30, spread=0.2, seed=11, dim=12):
    rng = np.random.default_rng(seed)
    a = rng.normal(-0.8, spread, size=(n_per_class, dim))
    b = rng.normal(0.8, spread, size=(n_per_class, dim))
    x = np.vstack([a, b])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return x, labels


# ---------------------------------------------------------------------------
# construction and validation


def test_model_shape_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        MlpModel(
            w_hidden=np.zeros((6, 12)),
            b_hidden=np.zeros(5),
            w_out=np.zeros((2, 6)),
            b_out=np.zeros(2),
        )
    with pytest.raises(ValueError, match="2-d"):
        MlpModel(
            w_hidden=np.zeros(12),
            b_hidden=np.zeros(6),
            w_out=np.zeros((2, 6)),
            b_out=np.zeros(2),
        )


@pytest.mark.parametrize("layer_sizes", [(12, 0, 2), (0, 6, 2), (12, 6, 0)])
@pytest.mark.parametrize("q_format", [None, QFormat()])
def test_model_rejects_an_empty_layer(layer_sizes, q_format):
    # a fixed model fails here too, before its integer kernel is built
    n_in, n_hidden, n_out = layer_sizes
    with pytest.raises(ValueError, match=rf"layer sizes \({n_in}, {n_hidden}, {n_out}\)"):
        MlpModel(w_hidden=np.zeros((n_hidden, n_in)), b_hidden=np.zeros(n_hidden),
                 w_out=np.zeros((n_out, n_hidden)), b_out=np.zeros(n_out), q_format=q_format)
    with pytest.raises(ValueError, match="empty layer"):
        init_model(seed=0, layer_sizes=layer_sizes)


def test_model_activation_validation():
    with pytest.raises(ValueError, match="unknown activation 'relu'; choose from pla, exact"):
        zero_model(activation="relu")
    with pytest.raises(ValueError, match="runs the pla activation, not exact"):
        MlpModel(w_hidden=np.zeros((6, 12)), b_hidden=np.zeros(6), w_out=np.zeros((2, 6)),
                 b_out=np.zeros(2), activation="exact", q_format=QFormat())


def _model_text(hidden, output, mode="fixed"):
    # a 1-1-2 net whose one hidden and first output weight are 1
    rows = {"fixed": "fixed 24 12\nwh 4096\nbh 0\nwo 4096\nwo 0\nbo 0 0\n",
            "real": "real\nwh 1\nbh 0\nwo 1\nwo 0\nbo 0 0\n"}[mode]
    return ("mlp-model v1\nlayers 1 1 2\n"
            f"hidden_activation {hidden}\noutput_activation {output}\nmode {rows}")


@pytest.mark.parametrize("hidden, output", [("tanh", "ntanh"), ("tanh", "ntanh_pla"),
                                            ("platanh", "ntanh"), ("platanh", "softmax")])
def test_fixed_model_runs_only_the_pla_activations(tmp_path, hidden, output):
    path = tmp_path / "model.txt"
    path.write_text(_model_text(hidden, output))
    # the exact pair is a mode, but not one a fixed model runs
    want = ("the pla activation, not exact" if (hidden, output) == ("tanh", "ntanh")
            else f"hidden {hidden} with output {output}")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{want}"):
        load_model(path)
    path.write_text(path.read_text().replace(f"activation {hidden}\n", "activation platanh\n")
                    .replace(f"activation {output}\n", "activation ntanh_pla\n"))
    # platanh(1) = 0.75, then ntanh_pla(0.75) = (0.75 / 2 + 0.25 + 1) / 2
    assert forward(load_model(path), np.array([1.0])).tolist() == [0.8125, 0.5]


def test_parameters_are_private_read_only_copies():
    w_hidden = np.zeros((6, 12))
    for fmt in (None, QFormat(24, 12)):
        m = MlpModel(w_hidden=w_hidden, b_hidden=np.zeros(6), w_out=np.zeros((2, 6)),
                     b_out=np.zeros(2), q_format=fmt)
        for p in m.parameter_arrays():
            with pytest.raises(ValueError, match="read-only"):
                p[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            m.w_hidden[0, 0] = 1.0
        w_hidden[0, 0] = 1.0  # the caller's array is neither frozen nor shared
        assert m.w_hidden[0, 0] == 0.0
        w_hidden[0, 0] = 0.0


def test_fixed_model_requires_representable_weights():
    kwargs = dict(
        b_hidden=np.zeros(1),
        w_out=np.zeros((2, 1)),
        b_out=np.zeros(2),
        q_format=QFormat(24, 12),
    )
    # 1/3 is not a multiple of 2^-12
    with pytest.raises(ValueError, match="not representable"):
        MlpModel(w_hidden=np.array([[1.0 / 3.0]]), **kwargs)
    # exact multiples are fine
    MlpModel(w_hidden=np.array([[0.250244140625]]), **kwargs)


def test_init_model_draw_order_and_range():
    m = init_model(seed=123)
    rng = np.random.default_rng(123)
    assert np.array_equal(m.w_hidden, rng.uniform(-0.5, 0.5, size=(6, 12)))
    assert np.array_equal(m.b_hidden, rng.uniform(-0.5, 0.5, size=6))
    assert np.array_equal(m.w_out, rng.uniform(-0.5, 0.5, size=(2, 6)))
    assert np.array_equal(m.b_out, rng.uniform(-0.5, 0.5, size=2))
    assert m.layer_sizes == (12, 6, 2)
    assert not m.is_fixed
    for p in m.parameter_arrays():
        assert np.all(np.abs(p) <= 0.5)


# ---------------------------------------------------------------------------
# forward pass


def test_zero_model_outputs_half():
    for activation in ACTIVATIONS:
        m = zero_model(activation)
        out = forward(m, np.zeros(12))
        assert out.shape == (2,)
        assert np.array_equal(out, [0.5, 0.5])


def test_tie_goes_to_arrhythmia():
    m = zero_model()
    assert predict(m, np.zeros(12)) == 1
    assert predict_batch(m, np.zeros((3, 12))).tolist() == [1, 1, 1]


def hand_model():
    return MlpModel(
        w_hidden=np.array([[1.0, -1.0]]),
        b_hidden=np.array([0.5]),
        w_out=np.array([[1.0], [-0.875]]),
        b_out=np.array([0.25, 0.5]),
    )


def test_hand_forward_exact_pla_values():
    out = forward(hand_model(), np.array([1.0, 2.0]))
    # hidden pre-activation: 1 - 2 + 0.5 = -0.5, identity segment -> -0.5
    # output 0: -0.5 + 0.25 = -0.25, identity -> (1 - 0.25) / 2
    # output 1: 0.4375 + 0.5 = 0.9375, half-slope segment -> x/2 + 0.25
    assert out[0] == 0.375
    assert out[1] == (0.9375 / 2 + 0.25 + 1.0) / 2.0 == 0.859375
    assert predict(hand_model(), np.array([1.0, 2.0])) == 1


def test_hand_forward_fixed_matches_real_exactly():
    # every weight, activation input, and segment offset in this fixture
    # is a multiple of 2^-12, so the integer path reproduces the real
    # PLA arithmetic bit for bit
    m = hand_model()
    q = quantize_model(m)
    x = np.array([1.0, 2.0])
    assert np.array_equal(forward(q, x), forward(m, x))
    assert np.array_equal(forward(q, x), [0.375, 0.859375])


def test_forward_batch_matches_loop_oracle():
    rng = np.random.default_rng(77)
    m = init_model(seed=3, activation="exact")
    x = rng.uniform(-2, 2, size=(7, 12))
    got = forward_batch(m, x)
    for r in range(7):
        for k in range(2):
            acc = m.b_out[k]
            for j in range(6):
                pre = m.b_hidden[j]
                for i in range(12):
                    pre += m.w_hidden[j, i] * x[r, i]
                acc += m.w_out[k, j] * math.tanh(pre)
            want = (math.tanh(acc) + 1.0) / 2.0
            assert got[r, k] == pytest.approx(want, abs=1e-12)


def test_forward_matches_batch():
    m = init_model(seed=9)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-3, 3, size=12)
        row = forward_batch(m, x[None, :])[0]
        assert np.array_equal(forward(m, x), row)
        assert predict(m, x) == predict_batch(m, x[None, :])[0]


def test_forward_shape_errors():
    m = init_model(seed=0)
    with pytest.raises(ValueError, match="feature shape"):
        forward(m, np.zeros(11))
    with pytest.raises(ValueError, match="batch shape"):
        forward_batch(m, np.zeros((4, 13)))


@pytest.mark.parametrize("fixed", [False, True])
def test_forward_batch_rejects_nan_features(fixed):
    m = init_model(seed=1)
    if fixed:
        m = quantize_model(m)
    x = np.zeros((3, 12))
    x[1, 5] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        predict_batch(m, x)


@pytest.mark.parametrize("fixed", [False, True])
def test_forward_batch_accepts_empty_batch(fixed):
    m = init_model(seed=1)
    if fixed:
        m = quantize_model(m)
    assert forward_batch(m, np.zeros((0, 12))).shape == (0, 2)
    assert predict_batch(m, np.zeros((0, 12))).shape == (0,)


def test_mse_known_value():
    m = zero_model()
    x = np.zeros((4, 12))
    targets = np.array([[1.0, 0.0]] * 4)
    # every output is 0.5, every squared error is 0.25
    assert mse(m, x, targets) == 0.25


# ---------------------------------------------------------------------------
# gradients


def near_pla_border(values, clearance=1e-4):
    v = np.abs(np.asarray(values)).reshape(-1, 1)
    return bool(np.any(np.abs(v - np.array(PLA_BORDERS)) < clearance))


def fd_gradients(model, x, targets, h=1e-5):
    outs = []
    for idx in range(4):
        p = model.parameter_arrays()[idx]
        g = np.zeros_like(p)
        for pos in np.ndindex(p.shape):
            def bumped(delta):
                arrs = [a.copy() for a in model.parameter_arrays()]
                arrs[idx][pos] += delta
                m2 = MlpModel(
                    w_hidden=arrs[0], b_hidden=arrs[1],
                    w_out=arrs[2], b_out=arrs[3],
                    activation=model.activation,
                )
                return mse(m2, x, targets)
            g[pos] = (bumped(h) - bumped(-h)) / (2 * h)
        outs.append(g)
    return outs


@pytest.mark.parametrize("activation", ["exact", "pla"], ids=mode_id)
def test_gradients_match_finite_differences(activation):
    rng = np.random.default_rng(list(ACTIVATIONS).index(activation))
    checked = 0
    for attempt in range(30):
        if checked >= 6:
            break
        m = init_model(seed=int(rng.integers(2**31)), activation=activation)
        x = rng.uniform(-1.5, 1.5, size=(5, 12))
        targets = rng.uniform(0, 1, size=(5, 2))
        h_pre = x @ m.w_hidden.T + m.b_hidden
        h = np.tanh(h_pre) if activation == "exact" else platanh(h_pre)
        o_pre = h @ m.w_out.T + m.b_out
        if near_pla_border(h_pre) or near_pla_border(o_pre):
            continue
        analytic = gradients(m, x, targets)
        numeric = fd_gradients(m, x, targets)
        for ga, gf in zip(analytic, numeric):
            denom = np.maximum(np.abs(ga), np.abs(gf))
            big = denom > 1e-4
            assert np.all(np.abs(ga - gf)[big] <= 1e-6 * denom[big])
            assert np.all(np.abs(ga - gf)[~big] <= 1e-9)
        checked += 1
    assert checked >= 6


def test_gradients_zero_when_hidden_saturated():
    m = MlpModel(
        w_hidden=np.full((6, 12), 0.01),
        b_hidden=np.full(6, 10.0),  # pre-activations ~10, beyond the last knee
        w_out=np.random.default_rng(0).uniform(-0.5, 0.5, (2, 6)),
        b_out=np.zeros(2),
    )
    x = np.random.default_rng(1).uniform(-1, 1, size=(8, 12))
    targets = np.array([[1.0, 0.0]] * 8)
    gw_h, gb_h, gw_o, gb_o = gradients(m, x, targets)
    assert np.array_equal(gw_h, np.zeros((6, 12)))
    assert np.array_equal(gb_h, np.zeros(6))
    # the output layer still learns: hidden outputs are the constant 1
    assert np.any(gw_o != 0) or np.any(gb_o != 0)


def test_gradients_reject_fixed_models():
    q = quantize_model(init_model(seed=0))
    with pytest.raises(ValueError, match="real-mode"):
        gradients(q, np.zeros((1, 12)), np.zeros((1, 2)))


def test_pla_left_segment_derivative_feeds_gradient():
    # one input, one hidden unit parked exactly on the knee at 1.0
    m = MlpModel(
        w_hidden=np.array([[1.0]]),
        b_hidden=np.array([0.0]),
        w_out=np.array([[1.0], [0.0]]),
        b_out=np.array([0.0, 0.0]),
    )
    x = np.array([[1.0]])
    targets = np.array([[0.0, 0.0]])
    gw_h, _, _, _ = gradients(m, x, targets)
    # h = platanh(1.0) = 0.75, out0 = (platanh(0.75) + 1)/2 = 0.8125;
    # chain through output 0 only (w_out row 1 is zero):
    #   dMSE/dout0 = 2(out0 - 0)/(1*2), times ntanh' = platanh'(0.75)/2,
    #   times w_out[0,0], times platanh'(1.0), times x
    want = 0.8125 * (platanh_derivative(0.75) / 2) * 1.0 * platanh_derivative(1.0) * 1.0
    assert want == 0.1015625
    assert gw_h[0, 0] == pytest.approx(want, rel=1e-12)
    assert platanh_derivative(1.0) == 0.5


# ---------------------------------------------------------------------------
# resilient backprop updates


def rprop_fixture():
    """Flat (params, steps, prev_grads) of a 1-1-2 model: w_hidden is
    params[0]."""
    params = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    return params, np.full_like(params, 0.1), np.zeros_like(params)


def test_rprop_first_step_uses_initial_delta():
    p, s, prev = rprop_fixture()
    rprop_step(p, s, prev, np.full(6, 0.3))
    assert p[0] == 1.0 - 0.1
    assert s[0] == 0.1
    assert prev[0] == 0.3


def test_rprop_same_sign_grows_step():
    p, s, prev = rprop_fixture()
    rprop_step(p, s, prev, np.full(6, 0.3))
    rprop_step(p, s, prev, np.full(6, 0.2))
    assert s[0] == pytest.approx(0.12)
    assert p[0] == pytest.approx(1.0 - 0.1 - 0.12)


def test_rprop_sign_flip_shrinks_and_holds():
    p, s, prev = rprop_fixture()
    rprop_step(p, s, prev, np.full(6, 0.3))
    rprop_step(p, s, prev, np.full(6, 0.2))
    w_before = p[0]
    rprop_step(p, s, prev, np.full(6, -0.5))
    assert p[0] == w_before          # no move on the flip
    assert s[0] == pytest.approx(0.06)
    assert prev[0] == 0.0            # memory cleared
    # the epoch after the flip moves with the shrunk step
    rprop_step(p, s, prev, np.full(6, -0.5))
    assert p[0] == pytest.approx(w_before + 0.06)


def test_rprop_zero_gradient_freezes_weight():
    p, s, prev = rprop_fixture()
    rprop_step(p, s, prev, np.full(6, 0.3))
    w = p[0]
    rprop_step(p, s, prev, np.full(6, 0.0))
    assert p[0] == w
    assert s[0] == 0.1
    assert prev[0] == 0.0


def test_rprop_step_bounds():
    p, _, _ = rprop_fixture()
    big = np.full(6, 49.0)
    rprop_step(p, big, np.ones(6), np.full(6, 1.0))
    assert big[0] == 50.0  # capped, not 58.8
    tiny = np.full(6, 1.5e-6)
    rprop_step(p, tiny, np.ones(6), np.full(6, -1.0))
    assert tiny[0] == 1e-6  # floored, not 7.5e-7


def flat(arrays):
    return np.concatenate(arrays, axis=None)


def unflatten(vector, like):
    """vector cut into copies shaped like the arrays of like."""
    ends = np.cumsum([a.size for a in like])[:-1]
    return tuple(v.reshape(a.shape).copy() for v, a in zip(np.split(vector, ends), like))


def test_rprop_steps_stay_in_bounds_during_training():
    x, labels = blob_dataset(n_per_class=15, seed=2)
    m = init_model(seed=0)
    params = flat(m.parameter_arrays())
    steps, prev = np.full_like(params, 0.1), np.zeros_like(params)
    targets = np.zeros((30, 2))
    targets[np.arange(30), labels] = 1.0
    for _ in range(60):
        rprop_step(params, steps, prev, flat(gradients(m, x, targets)))
        m = MlpModel(*unflatten(params, m.parameter_arrays()))
        assert np.all(steps >= 1e-6) and np.all(steps <= 50.0)


def test_rprop_step_matches_per_array_oracle():
    rng = np.random.default_rng(13)
    like = init_model(seed=0).parameter_arrays()
    n = sum(a.size for a in like)
    # steps inside and at their bounds; a quarter of the previous
    # gradients zero; about a third of the signs flipped; a quarter of
    # the gradients redrawn, some of them +0.0 or -0.0
    for _ in range(200):
        params = rng.uniform(-3.0, 3.0, n)
        steps = np.exp(rng.uniform(np.log(1e-6), np.log(50.0), n))
        edge = rng.random(n) < 0.1
        steps[edge] = rng.choice([1e-6, 1.5e-6, 49.0, 50.0], edge.sum())
        prev = rng.normal(size=n) * (rng.random(n) < 0.75)
        grads = np.abs(rng.normal(size=n)) * np.sign(prev)
        flip = rng.random(n) < 0.35
        grads[flip] = -grads[flip]
        fresh = rng.random(n) < 0.25
        grads[fresh] = rng.choice([0.0, -0.0, 1.0], fresh.sum()) * rng.normal(size=fresh.sum())
        want_params, want_state = rprop_oracle.rprop_step(
            unflatten(params, like),
            rprop_oracle.RpropState(unflatten(steps, like), unflatten(prev, like)),
            unflatten(grads, like))
        rprop_step(params, steps, prev, grads)
        assert params.tobytes() == flat(want_params).tobytes()
        assert steps.tobytes() == flat(want_state.steps).tobytes()
        assert prev.tobytes() == flat(want_state.prev_grads).tobytes()


# ---------------------------------------------------------------------------
# training


def test_train_learns_separable_blobs_platanh():
    x, labels = blob_dataset(n_per_class=30)
    m0 = init_model(seed=0)
    m, report = train(m0, x, labels, max_epochs=200, seed=0)
    assert np.array_equal(predict_batch(m, x), labels)
    assert report.mse_history[-1] < 0.01
    assert report.epochs <= 200


def test_train_learns_separable_blobs_tanh():
    x, labels = blob_dataset(n_per_class=30)
    m0 = init_model(seed=0, activation="exact")
    m, report = train(m0, x, labels, max_epochs=200, seed=0)
    assert np.array_equal(predict_batch(m, x), labels)
    assert report.mse_history[-1] < 0.01


def test_train_is_deterministic():
    x, labels = blob_dataset(n_per_class=10, seed=8)
    m0 = init_model(seed=99)
    m1, r1 = train(m0, x, labels, max_epochs=40, seed=5)
    m2, r2 = train(m0, x, labels, max_epochs=40, seed=5)
    assert r1.mse_history == r2.mse_history
    for a, b in zip(m1.parameter_arrays(), m2.parameter_arrays()):
        assert np.array_equal(a, b)


def test_train_ignores_incoming_weights():
    x, labels = blob_dataset(n_per_class=10, seed=8)
    ma, _ = train(init_model(seed=1), x, labels, max_epochs=10, seed=5)
    mb, _ = train(init_model(seed=2), x, labels, max_epochs=10, seed=5)
    for a, b in zip(ma.parameter_arrays(), mb.parameter_arrays()):
        assert np.array_equal(a, b)


def test_train_zero_epochs_returns_initial_model():
    x, labels = blob_dataset(n_per_class=5, seed=3)
    m, report = train(init_model(seed=4), x, labels, max_epochs=0, seed=4)
    fresh = init_model(seed=4)
    for a, b in zip(m.parameter_arrays(), fresh.parameter_arrays()):
        assert np.array_equal(a, b)
    assert report.mse_history == ()
    assert report.epochs == 0
    assert report.stop_reason == "max_epochs"


def test_train_requires_both_classes():
    x = np.zeros((10, 12))
    with pytest.raises(ValueError, match="both classes"):
        train(init_model(seed=0), x, np.zeros(10, dtype=int), max_epochs=5)
    with pytest.raises(ValueError, match="both classes"):
        train(init_model(seed=0), x, np.ones(10, dtype=int), max_epochs=5)


def test_train_plateau_stop():
    # saturate the network so gradients vanish and MSE freezes
    x, labels = blob_dataset(n_per_class=6, seed=1)
    m, report = train(init_model(seed=0), x * 1e4, labels, max_epochs=500, seed=0)
    assert report.stop_reason == "plateau"
    assert report.epochs == 25
    tail = report.mse_history[-20:]
    assert max(tail) - min(tail) < 1e-5


def _oracle_train(model, x, labels, *, max_epochs, seed):
    """train_oracle's training from the public balance_classes and
    init_model: (final model, MSE history, stop reason)."""
    x, labels = balance_classes(x, labels)
    first = init_model(seed=seed, layer_sizes=model.layer_sizes,
                       activation=model.activation).parameter_arrays()
    weights, history, reason = train_oracle.train(
        first, x, np.eye(2)[labels], model.activation, max_epochs)
    return MlpModel(*weights, activation=model.activation), history, reason


def overlapping_blobs():
    """Overlapping blobs with a minority that balancing duplicates."""
    x, labels = blob_dataset(n_per_class=40, spread=4.0, seed=4)
    keep = np.concatenate([np.arange(40), np.arange(40, 48)])
    return x[keep], labels[keep]


@pytest.mark.parametrize("activation, max_epochs, reason", [
    ("pla", 30, "max_epochs"),
    ("pla", 300, "plateau"),
    ("exact", 30, "max_epochs"),
    ("exact", 300, "plateau"),
], ids=mode_id)
def test_train_matches_loop_of_public_steps(activation, max_epochs, reason):
    # the loop is train_oracle's, whose forward pass and backprop share no
    # code with the package's, so a change in their bytes shows here
    x, labels = overlapping_blobs()
    model = init_model(seed=0, activation=activation)
    want_model, want_history, want_reason = _oracle_train(
        model, x, labels, max_epochs=max_epochs, seed=2)
    got_model, report = train(model, x, labels, max_epochs=max_epochs, seed=2)
    assert want_reason == reason
    assert report.stop_reason == reason
    assert report.balanced_counts == (40, 14)
    assert report.epochs == len(want_history)
    assert np.array(report.mse_history).tobytes() == np.array(want_history).tobytes()
    for got, want in zip(got_model.parameter_arrays(), want_model.parameter_arrays()):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("activation", ["pla", "exact"], ids=mode_id)
def test_train_matches_the_oracle_on_a_classify_shaped_set(activation):
    # 2,600 balanced rows, a repeated minority and inputs from 1e-2 to 1e3:
    # long column sums, and hidden units deep in both constant ends
    x, labels = train_oracle.classify_shaped()
    model = init_model(seed=0, activation=activation)
    want_model, want_history, want_reason = _oracle_train(
        model, x, labels, max_epochs=300, seed=7)
    got_model, report = train(model, x, labels, max_epochs=300, seed=7)
    assert report.balanced_counts == (1950, 650)
    assert (report.stop_reason, report.epochs) == (want_reason, len(want_history))
    assert np.array(report.mse_history).tobytes() == np.array(want_history).tobytes()
    for got, want in zip(got_model.parameter_arrays(), want_model.parameter_arrays()):
        assert got.tobytes() == want.tobytes()
    # Rprop reads only each gradient's sign, so a sum that changes a last
    # bit can leave the history alone: compare the gradients themselves,
    # from the passes train runs
    bx, bl = balance_classes(x, labels)
    targets = np.eye(2)[bl]
    weights = got_model.parameter_arrays()
    passed = train_oracle.forward(train_oracle.ACTIVATIONS[activation], weights, bx)
    want_grads = train_oracle.gradients(weights, bx, targets, passed)
    for got, want in zip(gradients(got_model, bx, targets), want_grads):
        assert got.tobytes() == want.tobytes()
    assert mse(got_model, bx, targets) == train_oracle.mse(passed[2], targets)


@pytest.mark.parametrize("k", [1, 2, 6, 12])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 2555])
def test_column_sums_keep_the_row_order(n, k):
    # the bias gradients' bytes rest on this: a numpy that reorders either
    # sum fails here before it moves a training history
    rng = np.random.default_rng(n * 100 + k)
    signs = rng.choice([-1.0, 1.0], size=(n, k))
    for a in (signs * np.exp(rng.uniform(-20.0, 20.0, size=(n, k))),
              signs * 10.0 ** rng.uniform(-300.0, 300.0, size=(n, k)),
              np.zeros((n, k)), np.full((n, k), -0.0), signs * 0.0):
        want = a.sum(axis=0).tobytes()
        assert _column_sums(a).tobytes() == want
        if k > 1:
            # row by row from +0.0; a one-wide array is one contiguous
            # column, which sum adds pairwise and einsum unrolled
            assert np.einsum("ij->j", a).tobytes() == want
            assert functools.reduce(np.add, a, np.zeros(k)).tobytes() == want


def test_train_runs_the_traced_module_functions(monkeypatch):
    # the benchmark's tracer wraps these module globals; train must call
    # them through the module so that its spans see every epoch
    import ecgarr.mlp as mlp
    calls = {"rprop_step": 0, "balance_classes": 0}

    def counting(name):
        original = getattr(mlp, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(mlp, name, counting(name))
    x, labels = overlapping_blobs()
    model, report = train(init_model(seed=0), x, labels, max_epochs=30, seed=2)
    assert report.stop_reason == "max_epochs"
    assert calls == {"rprop_step": 30, "balance_classes": 1}
    arrays = model.parameter_arrays()
    assert not any(a.flags.writeable for a in arrays)
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_train_rejects_bad_feature_batches():
    x, labels = blob_dataset(n_per_class=5, seed=3)
    x[2, 4] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        train(init_model(seed=0), x, labels, max_epochs=5)
    with pytest.raises(ValueError, match="input size"):
        train(init_model(seed=0), x[:, :11], labels, max_epochs=5)


def test_balance_classes_duplicates_minority():
    x = np.arange(105 * 12, dtype=float).reshape(105, 12)
    labels = np.array([0] * 100 + [1] * 5)
    x2, l2 = balance_classes(x, labels)
    assert int(np.sum(l2 == 1)) == 34  # ceil(100 / 3)
    assert int(np.sum(l2 == 0)) == 100
    # duplicates repeat the minority rows cyclically, in order
    minority_rows = x[100:]
    extras = x2[105:]
    for i, row in enumerate(extras):
        assert np.array_equal(row, minority_rows[i % 5])


def test_balance_classes_noop_when_already_balanced():
    x = np.zeros((40, 12))
    labels = np.array([0] * 20 + [1] * 20)
    x2, l2 = balance_classes(x, labels)
    assert x2.shape == (40, 12) and np.array_equal(l2, labels)


def test_train_reports_balanced_counts():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(44, 12))
    labels = np.array([0] * 40 + [1] * 4)
    _, report = train(init_model(seed=0), x, labels, max_epochs=1, seed=0)
    assert report.balanced_counts == (40, 14)


# ---------------------------------------------------------------------------
# quantization


def test_quantize_unit_weight_raw_value(tmp_path):
    m = MlpModel(
        w_hidden=np.array([[1.0]]),
        b_hidden=np.array([-0.5]),
        w_out=np.array([[0.25], [-1.0]]),
        b_out=np.array([0.0, 2.0]),
    )
    q = quantize_model(m)
    assert q.is_fixed and q.q_format == QFormat(24, 12)
    assert q.w_hidden[0, 0] == 1.0
    assert quantize_raw_array(q.w_hidden, q.q_format)[0, 0] == 4096
    path = tmp_path / "m.txt"
    save_model(path, q)
    text = path.read_text()
    assert "wh 4096" in text
    assert "bh -2048" in text


def test_quantize_rounds_to_nearest_even():
    step = 2 ** -12
    m = MlpModel(
        w_hidden=np.array([[2.5 * step, 3.5 * step, 0.4 * step]]),
        b_hidden=np.array([0.0]),
        w_out=np.array([[0.0], [0.0]]),
        b_out=np.array([0.0, 0.0]),
    )
    q = quantize_model(m)
    raw = quantize_raw_array(q.w_hidden, q.q_format)
    assert raw.tolist() == [[2, 4, 0]]  # ties to even, 0.4 down


def test_quantize_saturation_warns_and_clips():
    m = MlpModel(
        w_hidden=np.array([[3000.0]]),
        b_hidden=np.array([0.0]),
        w_out=np.array([[0.0], [0.0]]),
        b_out=np.array([0.0, 0.0]),
    )
    with pytest.warns(QuantizationWarning, match="saturated"):
        q = quantize_model(m)
    assert q.w_hidden[0, 0] == QFormat(24, 12).max_value


def test_quantize_switches_activations():
    q = quantize_model(init_model(seed=0, activation="exact"))
    assert q.activation == "pla"
    with pytest.raises(ValueError, match="already"):
        quantize_model(q)


def test_fixed_predictions_track_real_pla_model():
    x, labels = blob_dataset(n_per_class=50, seed=21)
    m, _ = train(init_model(seed=0), x, labels, max_epochs=80, seed=0)
    q = quantize_model(m)
    rng = np.random.default_rng(33)
    probe = rng.normal(0, 1, size=(1000, 12)) * 0.9
    real_pred = predict_batch(m, probe)
    fixed_pred = predict_batch(q, probe)
    agreement = np.mean(real_pred == fixed_pred)
    assert agreement >= 0.99


def test_coarse_fraction_bits_degrade_outputs():
    x, labels = blob_dataset(n_per_class=40, seed=5)
    m, _ = train(init_model(seed=1), x, labels, max_epochs=60, seed=1)
    probe = np.random.default_rng(6).uniform(-1.5, 1.5, size=(300, 12))
    real_out = forward_batch(m, probe)
    fine = forward_batch(quantize_model(m, QFormat(24, 12)), probe)
    coarse = forward_batch(quantize_model(m, QFormat(24, 2)), probe)
    err_fine = np.max(np.abs(fine - real_out))
    err_coarse = np.max(np.abs(coarse - real_out))
    assert err_fine < 0.02
    assert err_coarse > err_fine * 5


def test_fixed_forward_input_quantization_is_idempotent():
    q = quantize_model(init_model(seed=7))
    fmt = q.q_format
    rng = np.random.default_rng(8)
    x = rng.uniform(-2, 2, size=(20, 12))
    x_q = quantize_raw_array(x, fmt).astype(float) / fmt.scale
    assert np.array_equal(forward_batch(q, x), forward_batch(q, x_q))


# Q24.16 is the largest fraction width the activations run as a table
# lookup; Q25.20 runs the segment code.  Q25 is the widest format whose
# accumulators on 12-6-2 fit the kernel's 53 bits (52).
ORACLE_FORMATS = [QFormat(24, 12), QFormat(16, 8), QFormat(24, 0), QFormat(24, 3),
                  QFormat(16, 14), QFormat(25, 14), QFormat(24, 16), QFormat(25, 20)]


@pytest.mark.parametrize("fmt", ORACLE_FORMATS,
                         ids=lambda f: f"Q{f.total_bits}.{f.fraction_bits}")
def test_forward_batch_matches_integer_oracle(fmt):
    # Q24.0 makes the shift back by F a shift by 0, which must not round
    rng = np.random.default_rng(fmt.total_bits * 100 + fmt.fraction_bits)

    def param(*shape):
        # near-zero, typical and saturating magnitudes side by side
        size = rng.choice([0.01, 1.0, 60.0], size=shape)
        return quantize_raw_array(rng.uniform(-1, 1, size=shape) * size, fmt) / fmt.scale

    m = MlpModel(w_hidden=param(6, 12), b_hidden=param(6), w_out=param(2, 6),
                 b_out=param(2), q_format=fmt)
    x = rng.uniform(-8, 8, size=(300, 12)) * rng.choice([0.05, 1.0, 10.0], size=(300, 1))
    # inputs past the format saturate, infinite ones too
    x[rng.integers(300, size=40), rng.integers(12, size=40)] = rng.choice(
        [np.inf, -np.inf, 1e30, -1e30], size=40)
    got = forward_batch(m, x) * fmt.scale
    labels = predict_batch(m, x)

    def raw(values):
        return [oracle.to_fixed(float(v), fmt) for v in values]

    w_hidden, w_out = [raw(r) for r in m.w_hidden], [raw(r) for r in m.w_out]
    for row, out, label in zip(x, got, labels):
        want = oracle.forward(w_hidden, raw(m.b_hidden), w_out, raw(m.b_out), raw(row), fmt)
        assert out.tolist() == want
        # one beat at a time, as at the bedside, agrees with the batch
        assert predict(m, row) == label == int(want[1] >= want[0])


def test_one_lookup_table_per_format():
    # a format no other test builds, so its table is made here, once
    fmt = QFormat(22, 9)
    built = _lookup_table.cache_info().currsize
    first = quantize_model(init_model(seed=1), fmt)._kernel
    second = quantize_model(init_model(seed=2), fmt)._kernel
    assert _lookup_table.cache_info().currsize == built + 1
    assert first.tanh is second.tanh and first.ntanh is second.ntanh


def test_forward_batch_rounds_once_per_neuron():
    # Three products of 1/4096 and 0.5 sum to raw 1.5, which rounds to 2;
    # rounding each term would give 3 * rne(0.5) = 0.  The hidden raw 2
    # passes the identity segment and a unit output weight, and ntanh
    # turns it into rne((2 + 4096) / 2) = 2049 (per-term rounding: 2048).
    fmt = QFormat(24, 12)
    m = MlpModel(w_hidden=np.full((1, 3), 1 / 4096), b_hidden=np.zeros(1),
                 w_out=np.ones((1, 1)), b_out=np.zeros(1), q_format=fmt)
    assert forward_batch(m, np.full((1, 3), 0.5))[0, 0] * 4096 == 2049
    assert oracle.forward([[1, 1, 1]], [0], [[4096]], [0], [2048] * 3, fmt) == [2049]


# The kernel sums in float64, so every accumulator must have at most 53
# bits: on 12-6-2 that is 2 (W - 1) + 4 <= 53, so W <= 25.  Q25.24 sits at
# the rule's edge and must match the oracle; Q26 and Q27 are rejected
# when the model is built.  Q27.26 is where a float64 sum would change a
# byte.
@pytest.mark.parametrize("fmt, accepted", [
    pytest.param(QFormat(25, 24), True, id="Q25.24-float64"),
    pytest.param(QFormat(26, 25), False, id="Q26.25-rejected"),
    pytest.param(QFormat(27, 26), False, id="Q27.26-rejected")])
def test_both_sides_of_the_float64_rule_match_the_oracle(fmt, accepted):
    f, lo, hi = fmt.fraction_bits, fmt.raw_min, fmt.raw_max  # lo = -2**f
    extremes = [lo, lo + 1, -1, 0, 1, hi - 1, hi]
    rng = np.random.default_rng(fmt.total_bits)
    w_hidden = rng.choice(extremes, size=(6, 12))
    b_hidden = rng.choice(extremes, size=6)
    w_out = rng.choice(extremes, size=(2, 6))
    # Hidden neuron 0 sums, in input order as BLAS gemm does, lo * lo
    # twice (2**(2f + 1), which is 2**53 at Q27.26), then 2**(f - 1) + 1;
    # at Q27.26 a float64 sum rounds that odd total to even and loses 1.
    # Two lo * hi products bring the sum back to 2**(f + 1) + 2**(f - 1)
    # + 1, so the neuron's rounding by F is one unit past a tie: 3
    # exactly, 2 when the unit is lost.  Output neuron 0 reads only that
    # neuron.
    w_hidden[0] = [lo, lo, 1, hi, hi] + [0] * 7
    b_hidden[0] = 0
    w_out[0] = [hi] + [0] * 5
    # neuron 1's accumulator needs every bit: 12 products lo * lo and the
    # bias hi * 2**f on the all-lo row, about 13 * 2**(2f)
    w_hidden[1], b_hidden[1] = lo, hi
    params = dict(w_hidden=w_hidden / fmt.scale, b_hidden=b_hidden / fmt.scale,
                  w_out=w_out / fmt.scale, b_out=np.array([0, lo]) / fmt.scale, q_format=fmt)
    if not accepted:
        with pytest.raises(ValueError, match="past the 53 bits"):
            MlpModel(**params)
        return
    m = MlpModel(**params)
    x = rng.choice([*(np.array(extremes) / fmt.scale), np.inf, -np.inf, 1e30, -1e30],
                   size=(40, 12))
    x[0] = np.array([lo, lo, 2 ** (f - 1) + 1, lo, lo] + [0] * 7) / fmt.scale
    x[1] = lo / fmt.scale

    def raw(values):
        return [oracle.to_fixed(float(v), fmt) for v in values]

    want = [oracle.forward(w_hidden.tolist(), b_hidden.tolist(), w_out.tolist(), [0, lo],
                           raw(row), fmt) for row in x]
    assert want[0][0] == oracle.ntanh(3, fmt) != oracle.ntanh(2, fmt)
    assert (forward_batch(m, x) * fmt.scale).tolist() == want


def test_accumulator_guard_rejects_oversized_formats():
    with pytest.raises(ValueError, match="need 66 bits .* past the 53 bits"):
        MlpModel(
            w_hidden=np.zeros((6, 12)),
            b_hidden=np.zeros(6),
            w_out=np.zeros((2, 6)),
            b_out=np.zeros(2),
            q_format=QFormat(32, 16),
        )


# Fixed-point outputs of one batch and of its first rows one at a time
# (BLAS gemm and gemv), with parameters that saturate and inputs that do
# too, +-inf among them; Q25.24 runs the activations' segment code.
_FIXED_DIGEST = """
import hashlib
import numpy as np
from ecgarr.fixedpoint import QFormat, quantize_raw_array
from ecgarr.mlp import MlpModel, forward, forward_batch

rng = np.random.default_rng(29)
x = rng.uniform(-8, 8, size=(600, 12)) * rng.choice([0.05, 1.0, 10.0], size=(600, 1))
x[rng.integers(600, size=80), rng.integers(12, size=80)] = rng.choice(
    [np.inf, -np.inf, 1e30, -1e30], size=80)
digest = hashlib.sha256()
for fmt in (QFormat(24, 12), QFormat(25, 24), QFormat(16, 14)):
    def param(*shape):
        size = rng.choice([0.01, 1.0, 60.0], size=shape)
        return quantize_raw_array(rng.uniform(-1, 1, size=shape) * size, fmt) / fmt.scale
    m = MlpModel(w_hidden=param(6, 12), b_hidden=param(6), w_out=param(2, 6),
                 b_out=param(2), q_format=fmt)
    digest.update(forward_batch(m, x).tobytes())
    digest.update(np.array([forward(m, row) for row in x[:100]]).tobytes())
print(digest.hexdigest())
"""


def test_fixed_outputs_do_not_depend_on_the_blas_kernel():
    src = str(Path(ecgarr.__file__).resolve().parents[1])
    digests = {}
    for core in ("Prescott", "Haswell", "SkylakeX"):
        env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", _FIXED_DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests[core] = run.stdout.strip()
    assert len(set(digests.values())) == 1, digests


# Training on the classify-shaped set by ecgarr.mlp.train and by
# train_oracle: one digest each of the MSE history, the final weights and
# the gradients at those weights.
_TRAIN_DIGESTS = """
import hashlib
import numpy as np
import train_oracle
from ecgarr.mlp import balance_classes, gradients, init_model, train

def digest(history, *arrays):
    h = hashlib.sha256(np.array(history).tobytes())
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()

x, labels = train_oracle.classify_shaped()
model, report = train(init_model(0), x, labels, max_epochs=100, seed=7)
bx, bl = balance_classes(x, labels)
targets = np.eye(2)[bl]
weights, history, _ = train_oracle.train(
    init_model(7).parameter_arrays(), bx, targets, "pla", 100)
passed = train_oracle.forward(train_oracle.pla, weights, bx)
print(digest(report.mse_history, *model.parameter_arrays(), *gradients(model, bx, targets)),
      digest(history, *weights, *train_oracle.gradients(weights, bx, targets, passed)))
"""


def test_training_matches_the_oracle_on_every_blas_kernel():
    # each kernel may sum a product in its own order, so train and the
    # oracle are compared under one kernel at a time: equal bytes on each
    # show that training makes the oracle's BLAS calls on its operands
    src = str(Path(ecgarr.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    for core in ("Prescott", "Haswell", "SkylakeX"):
        env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, tests, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", _TRAIN_DIGESTS], env=env,
                             capture_output=True, text=True, check=True)
        got, want = run.stdout.split()
        assert got == want, core


# ---------------------------------------------------------------------------
# model files


def test_model_file_round_trip_real(tmp_path):
    for activation, (hidden, output) in (("exact", ("tanh", "ntanh")),
                                         ("pla", ("platanh", "ntanh_pla"))):
        m = init_model(seed=42, activation=activation)
        path = tmp_path / f"{activation}.txt"
        save_model(path, m)
        assert (f"hidden_activation {hidden}\noutput_activation {output}\nmode real\n"
                in path.read_text())
        m2 = load_model(path)
        assert m2.activation == activation
        assert m2.q_format is None
        for a, b in zip(m.parameter_arrays(), m2.parameter_arrays()):
            assert np.array_equal(a, b)


def test_model_file_round_trip_fixed(tmp_path):
    q = quantize_model(init_model(seed=13))
    path = tmp_path / "fixed.txt"
    save_model(path, q)
    q2 = load_model(path)
    assert q2.q_format == q.q_format
    assert q2.activation == "pla"
    assert "hidden_activation platanh\noutput_activation ntanh_pla\nmode fixed 24 12\n" \
        in path.read_text()
    for a, b in zip(q.parameter_arrays(), q2.parameter_arrays()):
        assert np.array_equal(quantize_raw_array(a, q.q_format),
                              quantize_raw_array(b, q.q_format))
    x = np.random.default_rng(0).uniform(-1, 1, size=(10, 12))
    assert np.array_equal(forward_batch(q, x), forward_batch(q2, x))


def test_model_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a model\n")
    with pytest.raises(ValueError, match="not a model file"):
        load_model(bad)
    bad.write_text("mlp-model v1\nlayers 12 6\n")
    with pytest.raises(ValueError, match="layers"):
        load_model(bad)
    bad.write_text(
        "mlp-model v1\nlayers 1 1 2\nhidden_activation platanh\n"
        "output_activation ntanh_pla\nmode real\n"
        "wh 0\nbh 0\nwo 0\nwo 0\nbo 0 0\nzz 1\n"
    )
    with pytest.raises(ValueError, match="row tag"):
        load_model(bad)


def test_model_file_shape_mismatch(tmp_path):
    path = tmp_path / "mismatch.txt"
    path.write_text(
        "mlp-model v1\nlayers 2 1 2\nhidden_activation platanh\n"
        "output_activation ntanh_pla\nmode real\n"
        "wh 0\nbh 0\nwo 0\nwo 0\nbo 0 0\n"
    )
    with pytest.raises(ValueError, match="disagree"):
        load_model(path)


# every pair the mixed activations wrote, which no mode writes now
UNWRITTEN_PAIRS = [("tanh", "ntanh_pla"), ("platanh", "ntanh"),
                   ("tanh", "softmax"), ("platanh", "softmax")]


@pytest.mark.parametrize("mode", ["real", "fixed"])
@pytest.mark.parametrize("hidden, output", UNWRITTEN_PAIRS)
def test_model_file_rejects_pairs_no_mode_writes(tmp_path, mode, hidden, output):
    path = tmp_path / "model.txt"
    path.write_text(_model_text(hidden, output, mode))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no activation mode runs "
                                         f"hidden {hidden} with output {output}$"):
        load_model(path)


TRUNCATED = {
    "magic only": ("mlp-model v1\n", "layers"),
    "no mode line": ("mlp-model v1\nlayers 1 1 2\nhidden_activation platanh\n"
                     "output_activation ntanh_pla\n", "mode"),
    "no output activation": ("mlp-model v1\nlayers 1 1 2\nhidden_activation platanh\n",
                             "output_activation"),
}


@pytest.mark.parametrize("case", sorted(TRUNCATED))
def test_model_file_truncated_in_its_header(tmp_path, case):
    text, missing = TRUNCATED[case]
    path = tmp_path / "model.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                         f"the file ends before its {missing} line$"):
        load_model(path)


MALFORMED = {
    "no hidden activation name": ("mlp-model v1\nlayers 1 1 2\nhidden_activation\n",
                                  "line 3: bad hidden_activation line 'hidden_activation'"),
    "short fixed mode": ("mlp-model v1\nlayers 1 1 2\nhidden_activation platanh\n"
                         "output_activation ntanh_pla\nmode fixed 24\n",
                         "line 5: bad mode line 'mode fixed 24'"),
    "no output bias": ("mlp-model v1\nlayers 1 1 2\nhidden_activation platanh\n"
                       "output_activation ntanh_pla\nmode real\nwh 1\nbh 0\nwo 1\nwo 0\n",
                       "1 bh and 0 bo rows, not one of each"),
    "two hidden bias rows": ("mlp-model v1\nlayers 1 1 2\nhidden_activation platanh\n"
                             "output_activation ntanh_pla\nmode real\nwh 1\nbh 0\nbh 5\n"
                             "wo 1\nwo 0\nbo 0 0\n", "2 bh and 1 bo rows, not one of each"),
    "bias row of the wrong length": ("mlp-model v1\nlayers 1 1 2\nhidden_activation platanh\n"
                                     "output_activation ntanh_pla\nmode real\nwh 1\nbh 0\n"
                                     "wo 1\nwo 0\nbo 0\n", "inconsistent shapes"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_model_file_malformed_lines_name_the_path(tmp_path, case):
    text, message = MALFORMED[case]
    path = tmp_path / "model.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
        load_model(path)


# (old text, new text, message): each model file has a blank line after
# its first, so a line number counts the file's own lines
BAD_NUMBERS = {
    "real weight": ("wh 1\n", "wh x0.136\n",
                    "line 7: wh value 'x0.136' is not a finite number"),
    # a NaN weight once loaded, and the model called every beat normal
    "NaN weight": ("bh 0\n", "bh nan\n", "line 8: bh value 'nan' is not a finite number"),
    "layer size": ("layers 1 1 2", "layers 1 x 2", "line 3: layer size 'x' is not an integer"),
    "bit count": ("mode fixed 24 12", "mode fixed 24 z",
                  "line 6: bit count 'z' is not an integer"),
    "fixed weight": ("wo 4096\n", "wo 1.5\n", "line 9: wo value '1.5' is not an integer"),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_model_file_bad_number_names_its_line(tmp_path, case):
    # such a file once failed with only the conversion's text, as
    # "could not convert string to float: 'x0.136'"
    old, new, message = BAD_NUMBERS[case]
    mode = "real" if case in ("real weight", "NaN weight") else "fixed"
    text = _model_text("platanh", "ntanh_pla", mode).replace("\n", "\n\n", 1)
    assert old in text
    path = tmp_path / "model.txt"
    path.write_text(text.replace(old, new))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_model(path)
