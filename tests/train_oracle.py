"""Reference full-batch Rprop- training of the classifier, in plain numpy.

It shares no code with ecgarr.mlp's forward pass or backprop.  The PLA
tanh is a searchsorted lookup in its own literal table, each layer is
``x @ w.T + b``, the bias gradients are ``.sum(axis=0)`` and every
update is ``rprop_oracle.rprop_step``.  The weight products are the same
BLAS calls on the same operands as the package's, and its column sums
add the rows in order, so tests require its history and weights byte
for byte from ``ecgarr.mlp.train``.
"""

import numpy as np

import rprop_oracle

# the PLA tanh's 12 borders, then each of its 13 segments' slope and offset
BORDERS = np.array([-5.58, -3.02, -2.02, -1.475, -1.125, -0.5,
                    0.5, 1.125, 1.475, 2.02, 3.02, 5.58])
SLOPES = np.array([0.0, 2.0 ** -12, 2.0 ** -5, 2.0 ** -3, 2.0 ** -2, 2.0 ** -1, 1.0,
                   2.0 ** -1, 2.0 ** -2, 2.0 ** -3, 2.0 ** -5, 2.0 ** -12, 0.0])
OFFSETS = np.array([-1.0, -0.9986376953125, -0.905, -0.715625, -0.53125, -0.25, -0.0,
                    0.25, 0.53125, 0.715625, 0.905, 0.9986376953125, 1.0])


def pla(z):
    """(value, slope) of the PLA tanh; a border takes its left segment."""
    seg = np.searchsorted(BORDERS, z)
    slope = SLOPES[seg]
    return np.clip(slope * np.clip(z, -5.58, 5.58) + OFFSETS[seg], -1.0, 1.0), slope


def exact(z):
    y = np.tanh(z)
    return y, 1.0 - y * y


ACTIVATIONS = {"pla": pla, "exact": exact}


def forward(act, weights, x):
    """Hidden outputs and slopes, then outputs mapped to [0, 1] and slopes."""
    w_hidden, b_hidden, w_out, b_out = weights
    h, h_slope = act(x @ w_hidden.T + b_hidden)
    y, y_slope = act(h @ w_out.T + b_out)
    return h, h_slope, (y + 1.0) / 2.0, y_slope / 2.0


def mse(out, targets):
    return float(np.mean((out - targets) ** 2))


def gradients(weights, x, targets, passed):
    """(gw_hidden, gb_hidden, gw_out, gb_out) of the MSE, from the
    forward pass of these weights on x."""
    h, h_slope, out, out_slope = passed
    d_out = 2.0 * (out - targets) / targets.size
    delta_o = d_out * out_slope
    delta_h = (delta_o @ weights[2]) * h_slope
    return delta_h.T @ x, delta_h.sum(axis=0), delta_o.T @ h, delta_o.sum(axis=0)


def train(weights, x, targets, activation, max_epochs):
    """(final weights, MSE history, stop reason) of Rprop- from weights on
    an already balanced batch.  Each epoch takes the gradients of the
    current weights, steps, and scores the new weights; training stops
    once the best MSE has failed to improve by 1e-7 for 20 epochs."""
    act = ACTIVATIONS[activation]
    state = rprop_oracle.RpropState.for_arrays(weights)
    passed = forward(act, weights, x)
    best = mse(passed[2], targets)
    history = []
    streak = 0
    reason = "max_epochs"
    for _ in range(max_epochs):
        weights, state = rprop_oracle.rprop_step(
            weights, state, gradients(weights, x, targets, passed))
        passed = forward(act, weights, x)
        err = mse(passed[2], targets)
        history.append(err)
        if best - err < 1e-7:
            streak += 1
            if streak >= 20:
                reason = "plateau"
                break
        else:
            streak = 0
        best = min(best, err)
    return weights, tuple(history), reason


def classify_shaped(seed=0):
    """(x, labels) shaped like the classify workload's training set:
    1,950 normal and 250 arrhythmic rows of 12 features whose scales run
    from 1e-2 to 1e3, which balancing lifts to 2,600 rows by repeating the
    arrhythmic ones."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(2200, dtype=np.int64)
    labels[rng.choice(2200, size=250, replace=False)] = 1
    scale = 10.0 ** np.linspace(-2.0, 3.0, 12)
    x = rng.normal(size=(2200, 12)) + 0.7 * labels[:, None] * rng.choice([-1.0, 1.0], size=12)
    return x * scale, labels
