"""A small fully connected classifier: 12 inputs, 6 hidden, 2 outputs.

Training always runs in real arithmetic (resilient backprop on the full
batch); deployment optionally quantizes the trained weights to a Q
format, where the forward pass becomes pure integer work: wide-
accumulator dot products, one rounding shift per neuron, and the
piecewise-linear activations, read from one table per format for up to
16 fraction bits (activation.fixed_activations).  Every accumulator must
fit the 53 bits a float64 holds exactly (fixedpoint.check_accumulator;
W <= 25 on 12-6-2), so those integer sums run as float64 matrix products
and one np.rint per layer, with the same bytes on every BLAS kernel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# platanh, platanh_derivative and the fixed-point names the integer kernel
# does not call (rne_shift_array, saturate_array) stay importable from
# this module, where callers and perfbench's tracer look them up.
from .activation import (
    _platanh_and_slope,
    fixed_activations,
    ntanh_fixed_raw_array,  # noqa: F401
    platanh,
    platanh_derivative,
    platanh_fixed_raw_array,  # noqa: F401
)
from .fixedpoint import QFormat, check_accumulator, quantize_raw_array
from .fixedpoint import rne_shift_array, saturate_array  # noqa: F401
from .textio import integer, real, tagged, tagged_lines

__all__ = [
    "MlpModel",
    "QuantizationWarning",
    "TrainReport",
    "balance_classes",
    "forward",
    "forward_batch",
    "gradients",
    "init_model",
    "load_model",
    "mse",
    "platanh",
    "platanh_derivative",
    "predict",
    "predict_batch",
    "quantize_model",
    "rprop_step",
    "save_model",
    "train",
]

NORMAL, ARRHYTHMIA = 0, 1  # output neuron convention


class QuantizationWarning(UserWarning):
    pass


def _tanh_and_slope(z):
    y = np.tanh(z)
    return y, 1.0 - y * y


# Each activation mode: the (value, slope) function both layers run, and
# the hidden and output names its model files carry.  Backprop takes the
# PLA's left-segment slope at a border.
ACTIVATIONS = {
    "pla": (_platanh_and_slope, ("platanh", "ntanh_pla")),
    "exact": (_tanh_and_slope, ("tanh", "ntanh")),
}
_PARAMETERS = ("w_hidden", "b_hidden", "w_out", "b_out")


@dataclass(frozen=True)
class MlpModel:
    """Weights and an activation mode; a q_format makes it a fixed-point
    model.

    Both layers run the mode's tanh, the output layer's normalized to
    [0, 1].  The parameter arrays are private read-only float64 copies.
    A fixed model also builds its integer kernel here, once: its
    parameters must be exact multiples of 2**-F inside the format, and
    its mode must be "pla".
    """

    w_hidden: np.ndarray  # (n_hidden, n_in)
    b_hidden: np.ndarray  # (n_hidden,)
    w_out: np.ndarray     # (n_out, n_hidden)
    b_out: np.ndarray     # (n_out,)
    activation: str = "pla"
    q_format: QFormat | None = None  # None = real arithmetic

    def __post_init__(self):
        for attr in _PARAMETERS:
            arr = np.array(getattr(self, attr), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, attr, arr)
        wh, bh, wo, bo = self.parameter_arrays()
        if wh.ndim != 2 or wo.ndim != 2:
            raise ValueError("weight matrices must be 2-d")
        n_hidden, n_in = wh.shape
        n_out = wo.shape[0]
        if bh.shape != (n_hidden,) or wo.shape != (n_out, n_hidden) or bo.shape != (n_out,):
            raise ValueError(
                f"inconsistent shapes: w_hidden {wh.shape}, b_hidden {bh.shape}, "
                f"w_out {wo.shape}, b_out {bo.shape}"
            )
        if 0 in (n_in, n_hidden, n_out):
            raise ValueError(f"layer sizes {(n_in, n_hidden, n_out)} include an empty layer")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}; "
                             f"choose from {', '.join(ACTIVATIONS)}")
        if self.q_format is not None:
            if self.activation != "pla":
                raise ValueError(
                    f"a fixed-point model runs the pla activation, not {self.activation}")
            object.__setattr__(self, "_kernel", _IntegerKernel(self.q_format, self))

    @property
    def layer_sizes(self):
        return (self.w_hidden.shape[1], self.w_hidden.shape[0], self.w_out.shape[0])

    @property
    def is_fixed(self) -> bool:
        return self.q_format is not None

    def parameter_arrays(self):
        return (self.w_hidden, self.b_hidden, self.w_out, self.b_out)


def init_model(seed: int = 0, layer_sizes=(12, 6, 2), activation: str = "pla") -> MlpModel:
    """Fresh real-mode model, weights uniform in [-0.5, 0.5]."""
    n_in, n_hidden, n_out = layer_sizes
    rng = np.random.default_rng(seed)
    return MlpModel(
        w_hidden=rng.uniform(-0.5, 0.5, size=(n_hidden, n_in)),
        b_hidden=rng.uniform(-0.5, 0.5, size=n_hidden),
        w_out=rng.uniform(-0.5, 0.5, size=(n_out, n_hidden)),
        b_out=rng.uniform(-0.5, 0.5, size=n_out),
        activation=activation,
    )


# ---------------------------------------------------------------------------
# forward passes


def _forward_real_batch(activation, weights, x):
    """(hidden outputs, their slopes, outputs, their slopes) for a batch,
    from an activation mode and (w_hidden, b_hidden, w_out, b_out); the
    output layer maps the mode's tanh to [0, 1], halving its slope."""
    act = ACTIVATIONS[activation][0]
    w_hidden, b_hidden, w_out, b_out = weights
    # each bias is added in place, in F order: the inner loop runs a column
    z = x @ w_hidden.T
    h, h_slope = act(np.add(z, b_hidden, out=z, order="F"))
    z = h @ w_out.T
    y, y_slope = act(np.add(z, b_out, out=z, order="F"))
    return h, h_slope, (y + 1.0) / 2.0, y_slope / 2.0


class _IntegerKernel:
    """A fixed model's forward pass in integer arithmetic, built once.

    Each neuron sums its raw products and its bias shifted up by F in one
    wide accumulator, rounds that back by F once (half to even) and hands
    it unsaturated to the format's (platanh, ntanh) pair: past the format
    the PLA is constant at the saturated +-1.  raws holds the raw
    parameters, as the model file writes them.

    Every accumulator has at most fixedpoint.FLOAT64_EXACT_BITS bits
    (check_accumulator), so a layer runs as a float64 matrix product: raw
    inputs times the model's own weights (raw * 2**-F exactly) plus the
    raw biases is acc * 2**-F, and every operand and partial sum on the
    way is k * 2**-F with |k| < 2**53, which a float64 holds exactly.  So
    no summation order or fused multiply-add of any BLAS kernel can
    change a bit, and one np.rint is the rounding shift.
    """

    def __init__(self, fmt: QFormat, model: MlpModel):
        check_accumulator(fmt, model.layer_sizes)
        raws = []
        for name, arr in zip(_PARAMETERS, model.parameter_arrays()):
            raw = arr * fmt.scale
            if not np.array_equal(raw, np.rint(raw)):
                raise ValueError(f"{name} not representable in {fmt}")
            if raw.min() < fmt.raw_min or raw.max() > fmt.raw_max:
                raise ValueError(f"{name} outside {fmt} range")
            raws.append(raw.astype(np.int64))
        self.raws = tuple(raws)
        # fixedpoint.quantize_raw_array's scale and bounds, as floats
        self.scale, self.raw_min, self.raw_max = (
            float(v) for v in (fmt.scale, fmt.raw_min, fmt.raw_max))
        self.tanh, self.ntanh = fixed_activations(fmt)
        self.w_hidden, self.b_hidden = model.w_hidden.T.copy(), raws[1].astype(np.float64)
        self.w_out, self.b_out = model.w_out.T.copy(), raws[3].astype(np.float64)

    def __call__(self, x):
        """Outputs for a float batch free of NaN, as floats: inputs are
        quantized first, and each accumulator is rounded back by F once."""
        x_raw = np.minimum(np.maximum(np.rint(x * self.scale), self.raw_min), self.raw_max)
        h = self.tanh(np.rint(x_raw @ self.w_hidden + self.b_hidden).astype(np.int64))
        out = self.ntanh(np.rint(h @ self.w_out + self.b_out).astype(np.int64))
        return out / self.scale


def _check_batch(model, x):
    n_in = model.w_hidden.shape[1]
    if x.ndim != 2 or x.shape[1] != n_in:
        raise ValueError(f"batch shape {x.shape} does not match input size {n_in}")
    if np.count_nonzero(np.isnan(x)):
        raise ValueError("cannot classify NaN features")


def _forward_rows(model, x):
    """forward_batch of a float64 array: its shape and NaN checks, then
    the pass."""
    _check_batch(model, x)
    if model.is_fixed:
        return model._kernel(x)
    return _forward_real_batch(model.activation, model.parameter_arrays(), x)[2]


def forward_batch(model: MlpModel, x) -> np.ndarray:
    """Outputs for a batch of feature rows, shape (n, n_out)."""
    return _forward_rows(model, np.asarray(x, dtype=np.float64))


def forward(model: MlpModel, feature) -> np.ndarray:
    """Outputs for a single feature vector.

    Fixed-mode inputs are expected pre-quantized to the model's format;
    quantization is applied anyway (it is idempotent on such values).
    """
    x = np.asarray(feature, dtype=np.float64)
    n_in = model.w_hidden.shape[1]
    if x.shape != (n_in,):
        raise ValueError(f"feature shape {x.shape}, expected ({n_in},)")
    return _forward_rows(model, x[None, :])[0]


def predict(model: MlpModel, feature) -> int:
    """0 = normal, 1 = arrhythmia; exact ties go to arrhythmia."""
    out = forward(model, feature)
    return ARRHYTHMIA if out[ARRHYTHMIA] >= out[NORMAL] else NORMAL


def predict_batch(model: MlpModel, x) -> np.ndarray:
    out = forward_batch(model, x)
    return np.where(out[:, ARRHYTHMIA] >= out[:, NORMAL], ARRHYTHMIA, NORMAL)


def mse(model: MlpModel, x, targets) -> float:
    """Mean squared error over every output of every row."""
    return _mse(forward_batch(model, x), targets)


def _mse(out, targets) -> float:
    t = np.asarray(targets, dtype=np.float64)
    return float(np.mean((out - t) ** 2))


# ---------------------------------------------------------------------------
# gradients


def gradients(model: MlpModel, x, targets):
    """Exact MSE gradient via backprop, as (gw_h, gb_h, gw_o, gb_o).

    Real mode only; the PLA activations contribute their segment slopes
    (left-segment rule at borders).
    """
    if model.is_fixed:
        raise ValueError("gradients are defined for real-mode models only")
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or t.shape != (x.shape[0], model.layer_sizes[2]):
        raise ValueError(f"bad batch shapes: x {x.shape}, targets {t.shape}")
    weights = model.parameter_arrays()
    return _backprop(weights, x, t, _forward_real_batch(model.activation, weights, x))


def _backprop(weights, x, targets, forward):
    """Gradients from the forward pass of these weights on x."""
    h, h_slope, out, out_slope = forward
    # d(mean((out-t)^2)) / d(out): mean over n rows * n_out entries
    delta_o = 2.0 * (out - targets) / targets.size * out_slope
    gw_o = delta_o.T @ h
    delta_h = delta_o @ weights[2]
    delta_h *= h_slope
    gw_h = delta_h.T @ x
    return gw_h, _column_sums(delta_h), gw_o, _column_sums(delta_o)


def _column_sums(a):
    """a.sum(axis=0), byte for byte: past one column both add the rows in
    order, einsum a few times faster; one column, sum adds pairwise."""
    return np.einsum("ij->j", a) if a.shape[1] > 1 else a.sum(axis=0)


# ---------------------------------------------------------------------------
# resilient backpropagation

# Rprop- (Riedmiller & Braun, ICNN 1993, without weight-backtracking as in
# Igel & Huesken 2000): each weight's step grows by ETA_PLUS while its
# gradient keeps its sign and shrinks by ETA_MINUS when the sign flips,
# within [DELTA_MIN, DELTA_MAX].  Training stops once the best MSE has
# failed to improve by PLATEAU_EPSILON for PLATEAU_EPOCHS epochs in a row;
# balancing lifts the minority class to ceil(majority / BALANCE_RATIO).
ETA_PLUS, ETA_MINUS = 1.2, 0.5
DELTA_INIT, DELTA_MIN, DELTA_MAX = 0.1, 1e-6, 50.0
PLATEAU_EPSILON, PLATEAU_EPOCHS, BALANCE_RATIO = 1e-7, 20, 3


def rprop_step(params, steps, prev_grads, grads):
    """One in-place update of the flat float64 vectors params, steps and
    prev_grads from the full-batch gradients grads.

    After a sign change the step shrinks and the weight holds still for
    one round (its previous gradient is zeroed, so no double shrink).
    """
    product = grads * prev_grads
    flip = product < 0
    shrunk = np.where(flip, np.maximum(steps * ETA_MINUS, DELTA_MIN), steps)
    steps[...] = np.where(product > 0, np.minimum(steps * ETA_PLUS, DELTA_MAX), shrunk)
    prev_grads[...] = np.where(flip, 0.0, grads)  # skip move after a sign flip
    params -= np.sign(prev_grads) * steps


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainReport:
    mse_history: tuple
    epochs: int
    stop_reason: str
    balanced_counts: tuple  # (n_normal, n_arrhythmia) after balancing

    def __post_init__(self):
        if any(m < 0 for m in self.mse_history):
            raise ValueError("MSE history must be nonnegative")


def balance_classes(x, labels):
    """Duplicate minority rows (cyclically) up to ceil(majority/BALANCE_RATIO).

    Returns (x, labels) unchanged when the minority is already at or
    above the floor.  Deterministic: duplicates repeat the minority
    rows in their original order.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    counts = [int(np.sum(labels == c)) for c in (NORMAL, ARRHYTHMIA)]
    minority = int(np.argmin(counts))
    need = -(-counts[1 - minority] // BALANCE_RATIO)  # ceil
    have = counts[minority]
    if have == 0 or have >= need:
        return x, labels
    idx = np.flatnonzero(labels == minority)
    extra = np.tile(idx, -(-(need - have) // have))[: need - have]
    x2 = np.concatenate([x, x[extra]], axis=0)
    labels2 = np.concatenate([labels, labels[extra]])
    return x2, labels2


def train(model: MlpModel, x, labels, *, max_epochs: int = 1000, seed: int = 0):
    """Full-batch Rprop- on the balanced classes from fresh seeded weights.

    The passed model supplies architecture and activation only; its
    weights are re-drawn uniform [-0.5, 0.5] from the seed.  Stops at
    max_epochs or on a plateau (PLATEAU_EPSILON, PLATEAU_EPOCHS).
    Returns (trained model, TrainReport).
    """
    if model.is_fixed:
        raise ValueError("training runs in real arithmetic; quantize afterwards")
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != labels.size or x.shape[0] == 0:
        raise ValueError(f"bad dataset shapes: x {x.shape}, labels {labels.shape}")
    _check_batch(model, x)
    present = set(np.unique(labels).tolist())
    if not present == {NORMAL, ARRHYTHMIA}:
        raise ValueError(f"training needs both classes present, got labels {sorted(present)}")

    x, labels = balance_classes(x, labels)
    targets = np.eye(model.layer_sizes[2])[labels]
    counts = (int(np.sum(labels == NORMAL)), int(np.sum(labels == ARRHYTHMIA)))

    # One flat vector holds every weight; the four parameter arrays are
    # C-contiguous views of it, so rprop_step updates them in place.
    first = init_model(seed, model.layer_sizes, model.activation).parameter_arrays()
    params = np.concatenate(first, axis=None)
    ends = np.cumsum([p.size for p in first])[:-1]
    weights = tuple(v.reshape(p.shape) for v, p in zip(np.split(params, ends), first))
    steps = np.full_like(params, DELTA_INIT)
    prev_grads = np.zeros_like(params)

    # The forward pass that scores one epoch's weights is the one the
    # next epoch's gradients start from.
    history = []
    forward = _forward_real_batch(model.activation, weights, x)
    best = _mse(forward[2], targets)
    streak = 0
    reason = "max_epochs"
    for _ in range(max_epochs):
        grads = np.concatenate(_backprop(weights, x, targets, forward), axis=None)
        rprop_step(params, steps, prev_grads, grads)
        forward = _forward_real_batch(model.activation, weights, x)
        err = _mse(forward[2], targets)
        history.append(err)
        if best - err < PLATEAU_EPSILON:
            streak += 1
            if streak >= PLATEAU_EPOCHS:
                reason = "plateau"
                break
        else:
            streak = 0
        best = min(best, err)
    report = TrainReport(
        mse_history=tuple(history),
        epochs=len(history),
        stop_reason=reason,
        balanced_counts=counts,
    )
    return MlpModel(*weights, activation=model.activation), report


# ---------------------------------------------------------------------------
# quantization


def quantize_model(model: MlpModel, fmt: QFormat = QFormat()) -> MlpModel:
    """Round every parameter to the Q format and switch to fixed mode.

    The activation becomes the piecewise-linear tanh.  Parameters outside
    the representable range saturate with a QuantizationWarning.  A
    format whose accumulators on this model's layer sizes would pass
    fixedpoint.FLOAT64_EXACT_BITS raises ValueError (check_accumulator).
    """
    if model.is_fixed:
        raise ValueError("model is already fixed-point")
    quantized = []
    clipped = 0
    for p in model.parameter_arrays():
        raw = quantize_raw_array(p, fmt)
        clipped += int(np.sum((p > fmt.max_value) | (p < fmt.min_value)))
        quantized.append(raw.astype(np.float64) / fmt.scale)
    if clipped:
        warnings.warn(
            f"{clipped} parameters saturated while quantizing to {fmt}",
            QuantizationWarning,
            stacklevel=2,
        )
    wh, bh, wo, bo = quantized
    return MlpModel(w_hidden=wh, b_hidden=bh, w_out=wo, b_out=bo,
                    activation="pla", q_format=fmt)


# ---------------------------------------------------------------------------
# model files


def save_model(path, model: MlpModel) -> None:
    """Structured text; lossless in real mode, bit-exact in fixed mode."""
    n_in, n_hidden, n_out = model.layer_sizes
    hidden, output = ACTIVATIONS[model.activation][1]
    with open(path, "w") as fh:
        fh.write("mlp-model v1\n")
        fh.write(f"layers {n_in} {n_hidden} {n_out}\n")
        fh.write(f"hidden_activation {hidden}\n")
        fh.write(f"output_activation {output}\n")
        if model.is_fixed:
            fmt = model.q_format
            fh.write(f"mode fixed {fmt.total_bits} {fmt.fraction_bits}\n")
            # a fixed model's rows are the raw integers its kernel holds
            arrays, fmt_value = model._kernel.raws, str
        else:
            fh.write("mode real\n")
            arrays, fmt_value = model.parameter_arrays(), lambda v: format(v, ".17g")

        for tag, arr in zip(("wh", "bh", "wo", "bo"), arrays):
            for row in np.atleast_2d(arr).tolist():
                fh.write(f"{tag} {' '.join(map(fmt_value, row))}\n")


def load_model(path) -> MlpModel:
    """A model from a save_model file.  A malformed or truncated file, or
    an activation pair no mode writes, raises ValueError naming path, and
    a malformed or non-finite number its 1-based line too."""
    with tagged_lines(path, "mlp-model v1", "model") as lines:
        number, sizes = tagged(lines, 0, "layers", 3)
        n_in, n_hidden, n_out = (integer(v, "layer size", number) for v in sizes)
        pair = [*tagged(lines, 1, "hidden_activation", 1)[1],
                *tagged(lines, 2, "output_activation", 1)[1]]
        modes = [mode for mode, (_, names) in ACTIVATIONS.items() if list(names) == pair]
        if not modes:
            raise ValueError(f"no activation mode runs hidden {pair[0]} with output {pair[1]}")
        number, mode = tagged(lines, 3, "mode", 1, 3)
        if mode == ["real"]:
            fmt, parse, scale = None, real, 1.0
        elif mode[0] == "fixed" and len(mode) == 3:
            fmt = QFormat(*(integer(v, "bit count", number) for v in mode[1:]))
            parse, scale = integer, fmt.scale  # a fixed row holds the raw integers
        else:
            raise ValueError(f"unknown mode {' '.join(mode)!r}")

        rows = {"wh": [], "bh": [], "wo": [], "bo": []}
        for number, (tag, *values) in lines[4:]:
            if tag not in rows:
                raise ValueError(f"unexpected row tag {tag!r}")
            rows[tag].append([parse(v, f"{tag} value", number) / scale for v in values])
        if len(rows["bh"]) != 1 or len(rows["bo"]) != 1:
            raise ValueError(f"{len(rows['bh'])} bh and {len(rows['bo'])} bo rows, "
                             "not one of each")
        wh, bh = np.asarray(rows["wh"]), np.asarray(rows["bh"][0])
        wo, bo = np.asarray(rows["wo"]), np.asarray(rows["bo"][0])
        if wh.shape != (n_hidden, n_in) or wo.shape != (n_out, n_hidden):
            raise ValueError("weight shapes disagree with layers line")
        return MlpModel(w_hidden=wh, b_hidden=bh, w_out=wo, b_out=bo,
                        activation=modes[0], q_format=fmt)
