"""Classifier network: forward passes, gradients, rprop, quantization."""

import math

import numpy as np
import pytest

import fixed_oracle as oracle
from ecgarr.activation import ntanh, platanh, platanh_derivative
from ecgarr.features import FeatureVector
from ecgarr.fixedpoint import QFormat, quantize_raw_array
from ecgarr.mlp import (
    MlpModel,
    QuantizationWarning,
    RpropState,
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

PLA_BORDERS = (0.5, 1.125, 1.475, 2.02, 3.02, 5.58)


def zero_model(hidden="platanh", output="ntanh_pla", sizes=(12, 6, 2)):
    n_in, n_hid, n_out = sizes
    return MlpModel(
        w_hidden=np.zeros((n_hid, n_in)),
        b_hidden=np.zeros(n_hid),
        w_out=np.zeros((n_out, n_hid)),
        b_out=np.zeros(n_out),
        hidden_activation=hidden,
        output_activation=output,
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


def test_model_activation_validation():
    with pytest.raises(ValueError, match="hidden activation"):
        zero_model(hidden="relu")
    with pytest.raises(ValueError, match="output activation"):
        zero_model(output="sigmoid")


@pytest.mark.parametrize("hidden, output", [("tanh", "ntanh"), ("tanh", "ntanh_pla"),
                                            ("platanh", "ntanh"), ("platanh", "softmax")])
def test_fixed_model_runs_only_the_pla_activations(tmp_path, hidden, output):
    path = tmp_path / "model.txt"
    path.write_text(
        "mlp-model v1\nlayers 1 1 2\n"
        f"hidden_activation {hidden}\noutput_activation {output}\n"
        "mode fixed 24 12\nwh 4096\nbh 0\nwo 4096\nwo 0\nbo 0 0\n"
    )
    with pytest.raises(ValueError, match="platanh and ntanh_pla"):
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
    for output in ("ntanh", "ntanh_pla"):
        m = zero_model(output=output)
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
        hidden_activation="platanh",
        output_activation="ntanh_pla",
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
    m = init_model(seed=3, hidden_activation="tanh", output_activation="ntanh")
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


def test_forward_matches_batch_and_accepts_feature_vectors():
    m = init_model(seed=9)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-3, 3, size=12)
        row = forward_batch(m, x[None, :])[0]
        assert np.array_equal(forward(m, x), row)
        assert np.array_equal(forward(m, FeatureVector(values=x)), row)
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


def test_softmax_output_mode():
    m = init_model(seed=2, output_activation="softmax")
    x = np.random.default_rng(4).uniform(-1, 1, size=(5, 12))
    out = forward_batch(m, x)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out > 0)
    with pytest.raises(ValueError, match="softmax"):
        gradients(m, x, np.zeros((5, 2)))
    with pytest.raises(ValueError, match="softmax"):
        quantize_model(m)


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
                    hidden_activation=model.hidden_activation,
                    output_activation=model.output_activation,
                )
                return mse(m2, x, targets)
            g[pos] = (bumped(h) - bumped(-h)) / (2 * h)
        outs.append(g)
    return outs


@pytest.mark.parametrize("hidden,output", [
    ("tanh", "ntanh"),
    ("platanh", "ntanh_pla"),
    ("tanh", "ntanh_pla"),
    ("platanh", "ntanh"),
])
def test_gradients_match_finite_differences(hidden, output):
    rng = np.random.default_rng(hash((hidden, output)) % 2**32)
    checked = 0
    for attempt in range(30):
        if checked >= 6:
            break
        m = init_model(seed=int(rng.integers(2**31)),
                       hidden_activation=hidden, output_activation=output)
        x = rng.uniform(-1.5, 1.5, size=(5, 12))
        targets = rng.uniform(0, 1, size=(5, 2))
        h_pre = x @ m.w_hidden.T + m.b_hidden
        h = np.tanh(h_pre) if hidden == "tanh" else platanh(h_pre)
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
        hidden_activation="platanh",
        output_activation="ntanh_pla",
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
        hidden_activation="platanh",
        output_activation="ntanh_pla",
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
    m = MlpModel(
        w_hidden=np.array([[1.0]]),
        b_hidden=np.array([0.0]),
        w_out=np.array([[1.0], [1.0]]),
        b_out=np.array([0.0, 0.0]),
    )
    return m, RpropState.for_model(m)


def grads_like(model, value):
    return tuple(np.full_like(p, value) for p in model.parameter_arrays())


def test_rprop_first_step_uses_initial_delta():
    m, s = rprop_fixture()
    m2, s2 = rprop_step(m, s, grads_like(m, 0.3))
    assert m2.w_hidden[0, 0] == 1.0 - 0.1
    assert s2.steps[0][0, 0] == 0.1
    assert s2.prev_grads[0][0, 0] == 0.3


def test_rprop_same_sign_grows_step():
    m, s = rprop_fixture()
    m, s = rprop_step(m, s, grads_like(m, 0.3))
    m, s = rprop_step(m, s, grads_like(m, 0.2))
    assert s.steps[0][0, 0] == pytest.approx(0.12)
    assert m.w_hidden[0, 0] == pytest.approx(1.0 - 0.1 - 0.12)


def test_rprop_sign_flip_shrinks_and_holds():
    m, s = rprop_fixture()
    m, s = rprop_step(m, s, grads_like(m, 0.3))
    m, s = rprop_step(m, s, grads_like(m, 0.2))
    w_before = m.w_hidden[0, 0]
    m, s = rprop_step(m, s, grads_like(m, -0.5))
    assert m.w_hidden[0, 0] == w_before          # no move on the flip
    assert s.steps[0][0, 0] == pytest.approx(0.06)
    assert s.prev_grads[0][0, 0] == 0.0          # memory cleared
    # the epoch after the flip moves with the shrunk step
    m, s = rprop_step(m, s, grads_like(m, -0.5))
    assert m.w_hidden[0, 0] == pytest.approx(w_before + 0.06)


def test_rprop_zero_gradient_freezes_weight():
    m, s = rprop_fixture()
    m, s = rprop_step(m, s, grads_like(m, 0.3))
    w = m.w_hidden[0, 0]
    m, s = rprop_step(m, s, grads_like(m, 0.0))
    assert m.w_hidden[0, 0] == w
    assert s.steps[0][0, 0] == 0.1
    assert s.prev_grads[0][0, 0] == 0.0


def test_rprop_step_bounds():
    m, s = rprop_fixture()
    big = RpropState(
        steps=tuple(np.full_like(p, 49.0) for p in m.parameter_arrays()),
        prev_grads=tuple(np.ones_like(p) for p in m.parameter_arrays()),
    )
    _, s2 = rprop_step(m, big, grads_like(m, 1.0))
    assert s2.steps[0][0, 0] == 50.0  # capped, not 58.8
    tiny = RpropState(
        steps=tuple(np.full_like(p, 1.5e-6) for p in m.parameter_arrays()),
        prev_grads=tuple(np.ones_like(p) for p in m.parameter_arrays()),
    )
    _, s3 = rprop_step(m, tiny, grads_like(m, -1.0))
    assert s3.steps[0][0, 0] == 1e-6  # floored, not 7.5e-7


def test_rprop_steps_stay_in_bounds_during_training():
    x, labels = blob_dataset(n_per_class=15, seed=2)
    m = init_model(seed=0)
    state = RpropState.for_model(m)
    targets = np.zeros((30, 2))
    targets[np.arange(30), labels] = 1.0
    for _ in range(60):
        m, state = rprop_step(m, state, gradients(m, x, targets))
        for step in state.steps:
            assert np.all(step >= 1e-6) and np.all(step <= 50.0)


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
    m0 = init_model(seed=0, hidden_activation="tanh", output_activation="ntanh")
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
    m, report = train(
        init_model(seed=0), x * 1e4, labels,
        max_epochs=500, seed=0, plateau_epochs=20,
    )
    if report.stop_reason == "plateau":
        assert report.epochs < 500
        tail = report.mse_history[-20:]
        assert max(tail) - min(tail) < 1e-5
    else:
        assert report.epochs == 500


def _reference_train(model, x, labels, *, max_epochs, seed,
                     plateau_epsilon=1e-7, plateau_epochs=20):
    """The training loop built from public functions alone: one mse, then
    gradients, rprop_step and mse again on every epoch."""
    x, labels = balance_classes(x, labels)
    targets = np.eye(2)[labels]
    current = init_model(seed=seed, layer_sizes=model.layer_sizes,
                         hidden_activation=model.hidden_activation,
                         output_activation=model.output_activation)
    state = RpropState.for_model(current)
    history = []
    best = mse(current, x, targets)
    streak = 0
    reason = "max_epochs"
    for _ in range(max_epochs):
        current, state = rprop_step(current, state, gradients(current, x, targets))
        err = mse(current, x, targets)
        history.append(err)
        if best - err < plateau_epsilon:
            streak += 1
            if streak >= plateau_epochs:
                reason = "plateau"
                break
        else:
            streak = 0
        best = min(best, err)
    return current, tuple(history), reason


@pytest.mark.parametrize("hidden, output, max_epochs, reason", [
    ("platanh", "ntanh_pla", 30, "max_epochs"),
    ("platanh", "ntanh_pla", 300, "plateau"),
    ("tanh", "ntanh", 30, "max_epochs"),
    ("tanh", "ntanh", 300, "plateau"),
])
def test_train_matches_loop_of_public_steps(hidden, output, max_epochs, reason):
    # overlapping blobs with a minority that balancing duplicates
    x, labels = blob_dataset(n_per_class=40, spread=4.0, seed=4)
    keep = np.concatenate([np.arange(40), np.arange(40, 48)])
    x, labels = x[keep], labels[keep]
    model = init_model(seed=0, hidden_activation=hidden, output_activation=output)
    want_model, want_history, want_reason = _reference_train(
        model, x, labels, max_epochs=max_epochs, seed=2)
    got_model, report = train(model, x, labels, max_epochs=max_epochs, seed=2)
    assert want_reason == reason
    assert report.stop_reason == reason
    assert report.balanced_counts == (40, 14)
    assert report.epochs == len(want_history)
    assert np.array(report.mse_history).tobytes() == np.array(want_history).tobytes()
    for got, want in zip(got_model.parameter_arrays(), want_model.parameter_arrays()):
        assert got.tobytes() == want.tobytes()


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
    _, report = train(init_model(seed=0), x, labels, max_epochs=1, seed=0, balance=False)
    assert report.balanced_counts == (40, 4)


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
    q = quantize_model(init_model(seed=0, hidden_activation="tanh",
                                  output_activation="ntanh"))
    assert q.hidden_activation == "platanh"
    assert q.output_activation == "ntanh_pla"
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


ORACLE_FORMATS = [QFormat(24, 12), QFormat(16, 8), QFormat(24, 0), QFormat(24, 3),
                  QFormat(16, 14), QFormat(28, 14)]


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


def test_accumulator_guard_rejects_oversized_formats():
    with pytest.raises(ValueError, match="int64"):
        MlpModel(
            w_hidden=np.zeros((6, 12)),
            b_hidden=np.zeros(6),
            w_out=np.zeros((2, 6)),
            b_out=np.zeros(2),
            q_format=QFormat(32, 16),
        )


# ---------------------------------------------------------------------------
# model files


def test_model_file_round_trip_real(tmp_path):
    m = init_model(seed=42, hidden_activation="tanh", output_activation="softmax")
    path = tmp_path / "real.txt"
    save_model(path, m)
    m2 = load_model(path)
    assert m2.hidden_activation == "tanh"
    assert m2.output_activation == "softmax"
    assert m2.q_format is None
    for a, b in zip(m.parameter_arrays(), m2.parameter_arrays()):
        assert np.array_equal(a, b)


def test_model_file_round_trip_fixed(tmp_path):
    q = quantize_model(init_model(seed=13))
    path = tmp_path / "fixed.txt"
    save_model(path, q)
    q2 = load_model(path)
    assert q2.q_format == q.q_format
    assert q2.hidden_activation == "platanh"
    assert q2.output_activation == "ntanh_pla"
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
