"""A small fully connected classifier: 12 inputs, 6 hidden, 2 outputs.

Training always runs in real arithmetic (resilient backprop on the full
batch); deployment optionally quantizes the trained weights to a Q
format, where the forward pass becomes pure integer work: wide-
accumulator dot products, one rounding shift per neuron, and the
shift-and-add piecewise-linear activations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

# platanh, platanh_derivative and the fixed-point names the integer kernel
# does not call stay importable from this module, where callers and
# perfbench's tracer look them up.
from .activation import (
    _fixed_table,
    _ntanh_fixed,
    _platanh_and_slope,
    _platanh_fixed,
    ntanh_fixed_raw_array,
    platanh,
    platanh_derivative,
    platanh_fixed_raw_array,
    softmax,
)
from .fixedpoint import (QFormat, check_accumulator, quantize_raw_array, rne_constants,
                         rne_shift, rne_shift_array, saturate_array)

__all__ = [
    "MlpModel",
    "QuantizationWarning",
    "RpropState",
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

HIDDEN_ACTIVATIONS = ("tanh", "platanh")
OUTPUT_ACTIVATIONS = ("ntanh", "ntanh_pla", "softmax")

NORMAL, ARRHYTHMIA = 0, 1  # output neuron convention


class QuantizationWarning(UserWarning):
    pass


FIXED_ACTIVATIONS = ("platanh", "ntanh_pla")  # the integer kernel's pair
_PARAMETERS = ("w_hidden", "b_hidden", "w_out", "b_out")


@dataclass(frozen=True)
class MlpModel:
    """Weights and activations; a q_format makes it a fixed-point model.

    The parameter arrays are private read-only float64 copies.  A fixed
    model also builds its integer kernel here, once: its parameters must
    be exact multiples of 2**-F inside the format, and it runs only the
    PLA activations.
    """

    w_hidden: np.ndarray  # (n_hidden, n_in)
    b_hidden: np.ndarray  # (n_hidden,)
    w_out: np.ndarray     # (n_out, n_hidden)
    b_out: np.ndarray     # (n_out,)
    hidden_activation: str = "platanh"
    output_activation: str = "ntanh_pla"
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
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {self.hidden_activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        if self.q_format is not None:
            if (self.hidden_activation, self.output_activation) != FIXED_ACTIVATIONS:
                raise ValueError(
                    f"a fixed-point model runs {' and '.join(FIXED_ACTIVATIONS)}, not "
                    f"{self.hidden_activation} and {self.output_activation}")
            object.__setattr__(self, "_kernel", _IntegerKernel(self.q_format, self))

    @property
    def layer_sizes(self):
        return (self.w_hidden.shape[1], self.w_hidden.shape[0], self.w_out.shape[0])

    @property
    def is_fixed(self) -> bool:
        return self.q_format is not None

    def parameter_arrays(self):
        return (self.w_hidden, self.b_hidden, self.w_out, self.b_out)


def init_model(
    seed: int = 0,
    layer_sizes=(12, 6, 2),
    hidden_activation: str = "platanh",
    output_activation: str = "ntanh_pla",
) -> MlpModel:
    """Fresh real-mode model, weights uniform in [-0.5, 0.5]."""
    n_in, n_hidden, n_out = layer_sizes
    rng = np.random.default_rng(seed)
    return MlpModel(
        w_hidden=rng.uniform(-0.5, 0.5, size=(n_hidden, n_in)),
        b_hidden=rng.uniform(-0.5, 0.5, size=n_hidden),
        w_out=rng.uniform(-0.5, 0.5, size=(n_out, n_hidden)),
        b_out=rng.uniform(-0.5, 0.5, size=n_out),
        hidden_activation=hidden_activation,
        output_activation=output_activation,
    )


# ---------------------------------------------------------------------------
# forward passes


def _activate(name, z):
    """(value, slope) of one layer's activation at its inputs z.

    The slope is what backprop needs (left-segment rule at PLA borders);
    softmax has none, since training with it is not supported.
    """
    if name in ("tanh", "ntanh"):
        y = np.tanh(z)
        slope = 1.0 - y * y
    elif name in ("platanh", "ntanh_pla"):
        y, slope = _platanh_and_slope(z)
    else:
        return (np.apply_along_axis(softmax, -1, z) if z.ndim > 1 else softmax(z)), None
    if name in ("ntanh", "ntanh_pla"):
        return (y + 1.0) / 2.0, slope / 2.0
    return y, slope


def _as_features(x) -> np.ndarray:
    values = getattr(x, "values", x)
    return np.asarray(values, dtype=np.float64)


def _forward_real_batch(model, x):
    """(hidden outputs, their slopes, outputs, their slopes) for a batch."""
    h, h_slope = _activate(model.hidden_activation,
                           x @ model.w_hidden.T + model.b_hidden)
    out, out_slope = _activate(model.output_activation,
                               h @ model.w_out.T + model.b_out)
    return h, h_slope, out, out_slope


class _IntegerKernel:
    """A fixed model's forward pass in int64 arithmetic, built once.

    It holds the raw weights, transposed for a batch of rows, the biases
    shifted up by F to join each neuron's wide accumulator, the shift
    back by F with its rounding constants, and the PLA segment table.
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
        wh, bh, wo, bo = raws
        f = fmt.fraction_bits
        self.fmt = fmt
        self.w_hidden, self.b_hidden = wh.T.copy(), bh << f
        self.w_out, self.b_out = wo.T.copy(), bo << f
        self.shift_f = (f, *(int(v) for v in rne_constants(f)))
        self.table = _fixed_table(fmt)

    def _neurons(self, acc):
        """One round-half-even shift by F per accumulator, then saturation."""
        return saturate_array(rne_shift(acc, *self.shift_f), self.fmt)

    def __call__(self, x):
        """Outputs for a float batch, as floats: inputs are quantized first."""
        fmt = self.fmt
        x_raw = quantize_raw_array(x, fmt)
        h = _platanh_fixed(self._neurons(x_raw @ self.w_hidden + self.b_hidden), self.table)
        out = _ntanh_fixed(self._neurons(h @ self.w_out + self.b_out), self.table)
        return out / float(fmt.scale)


def _check_batch(model, x):
    if x.ndim != 2 or x.shape[1] != model.layer_sizes[0]:
        raise ValueError(
            f"batch shape {x.shape} does not match input size {model.layer_sizes[0]}"
        )
    if np.count_nonzero(np.isnan(x)):
        raise ValueError("cannot classify NaN features")


def forward_batch(model: MlpModel, x) -> np.ndarray:
    """Outputs for a batch of feature rows, shape (n, n_out)."""
    x = np.asarray(x, dtype=np.float64)
    _check_batch(model, x)
    if model.is_fixed:
        return model._kernel(x)
    return _forward_real_batch(model, x)[2]


def forward(model: MlpModel, feature) -> np.ndarray:
    """Outputs for a single feature vector (accepts FeatureVector or array).

    Fixed-mode inputs are expected pre-quantized to the model's format;
    quantization is applied anyway (it is idempotent on such values).
    """
    x = _as_features(feature)
    if x.shape != (model.layer_sizes[0],):
        raise ValueError(f"feature shape {x.shape}, expected ({model.layer_sizes[0]},)")
    return forward_batch(model, x[None, :])[0]


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
    return _backprop(model, x, t, _forward_real_batch(model, x))


def _backprop(model, x, targets, forward):
    """Gradients from the forward pass of this model on x."""
    h, h_slope, out, out_slope = forward
    if out_slope is None:
        raise ValueError("gradient training with softmax outputs is not supported")
    # d(mean((out-t)^2)) / d(out): mean over n rows * n_out entries
    d_out = 2.0 * (out - targets) / targets.size
    delta_o = d_out * out_slope
    gw_o = delta_o.T @ h
    gb_o = delta_o.sum(axis=0)
    delta_h = (delta_o @ model.w_out) * h_slope
    gw_h = delta_h.T @ x
    gb_h = delta_h.sum(axis=0)
    return gw_h, gb_h, gw_o, gb_o


# ---------------------------------------------------------------------------
# resilient backpropagation


@dataclass(frozen=True)
class RpropState:
    """Per-weight step sizes and previous-gradient memory.

    Sign-change handling: the step shrinks and the weight holds still
    for one round (previous gradient zeroed so no double shrink).
    """

    steps: tuple          # one array per parameter group
    prev_grads: tuple
    eta_plus: float = 1.2
    eta_minus: float = 0.5
    delta_init: float = 0.1
    delta_max: float = 50.0
    delta_min: float = 1e-6

    @classmethod
    def for_model(cls, model: MlpModel, **hyper) -> "RpropState":
        delta0 = hyper.get("delta_init", 0.1)
        steps = tuple(np.full_like(p, delta0) for p in model.parameter_arrays())
        prev = tuple(np.zeros_like(p) for p in model.parameter_arrays())
        return cls(steps=steps, prev_grads=prev, **hyper)


def rprop_step(model: MlpModel, state: RpropState, grads):
    """One update of every weight from full-batch gradients."""
    new_params = []
    new_steps = []
    new_prev = []
    for p, g, step, pg in zip(model.parameter_arrays(), grads,
                              state.steps, state.prev_grads):
        g = np.asarray(g, dtype=np.float64)
        product = g * pg
        step = np.where(product > 0, np.minimum(step * state.eta_plus, state.delta_max),
                        np.where(product < 0, np.maximum(step * state.eta_minus, state.delta_min),
                                 step))
        g_eff = np.where(product < 0, 0.0, g)  # skip move after a sign flip
        new_params.append(p - np.sign(g_eff) * step)
        new_steps.append(step)
        new_prev.append(g_eff)
    wh, bh, wo, bo = new_params
    model2 = replace(model, w_hidden=wh, b_hidden=bh, w_out=wo, b_out=bo)
    state2 = replace(state, steps=tuple(new_steps), prev_grads=tuple(new_prev))
    return model2, state2


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


def balance_classes(x, labels, *, floor_ratio: float = 3.0):
    """Duplicate minority rows (cyclically) up to ceil(majority/ratio).

    Returns (x, labels) unchanged when the minority is already at or
    above the floor.  Deterministic: duplicates repeat the minority
    rows in their original order.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    counts = [int(np.sum(labels == c)) for c in (NORMAL, ARRHYTHMIA)]
    minority = int(np.argmin(counts))
    need = -(-counts[1 - minority] // int(floor_ratio))  # ceil
    have = counts[minority]
    if have == 0 or have >= need:
        return x, labels
    idx = np.flatnonzero(labels == minority)
    extra = np.tile(idx, -(-(need - have) // have))[: need - have]
    x2 = np.concatenate([x, x[extra]], axis=0)
    labels2 = np.concatenate([labels, labels[extra]])
    return x2, labels2


def one_hot(labels, n_classes: int = 2) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    t = np.zeros((labels.size, n_classes))
    t[np.arange(labels.size), labels] = 1.0
    return t


def train(
    model: MlpModel,
    x,
    labels,
    *,
    max_epochs: int = 1000,
    seed: int = 0,
    balance: bool = True,
    plateau_epsilon: float = 1e-7,
    plateau_epochs: int = 20,
    rprop_hyper: dict | None = None,
):
    """Full-batch resilient backprop from a fresh seeded initialization.

    The passed model supplies architecture and activations only; its
    weights are re-drawn uniform [-0.5, 0.5] from the seed.  Stops at
    max_epochs or once the best MSE has failed to improve by
    plateau_epsilon for plateau_epochs consecutive epochs.  Returns
    (trained model, TrainReport).
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

    if balance:
        x, labels = balance_classes(x, labels)
    targets = one_hot(labels, model.layer_sizes[2])
    counts = (int(np.sum(labels == NORMAL)), int(np.sum(labels == ARRHYTHMIA)))

    current = init_model(
        seed=seed,
        layer_sizes=model.layer_sizes,
        hidden_activation=model.hidden_activation,
        output_activation=model.output_activation,
    )
    state = RpropState.for_model(current, **(rprop_hyper or {}))

    # The forward pass that scores one epoch's weights is the one the
    # next epoch's gradients start from.
    history = []
    forward = _forward_real_batch(current, x)
    best = _mse(forward[2], targets)
    streak = 0
    reason = "max_epochs"
    for _ in range(max_epochs):
        grads = _backprop(current, x, targets, forward)
        current, state = rprop_step(current, state, grads)
        forward = _forward_real_batch(current, x)
        err = _mse(forward[2], targets)
        history.append(err)
        if best - err < plateau_epsilon:
            streak += 1
            if streak >= plateau_epochs:
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
    return current, report


# ---------------------------------------------------------------------------
# quantization


def quantize_model(model: MlpModel, fmt: QFormat = QFormat()) -> MlpModel:
    """Round every parameter to the Q format and switch to fixed mode.

    Hidden activation becomes the piecewise-linear tanh, output becomes
    its normalized form.  Parameters outside the representable range
    saturate with a QuantizationWarning.
    """
    if model.is_fixed:
        raise ValueError("model is already fixed-point")
    if model.output_activation == "softmax":
        raise ValueError("softmax has no fixed-point deployment path")
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
    hidden, output = FIXED_ACTIVATIONS
    return MlpModel(
        w_hidden=wh, b_hidden=bh, w_out=wo, b_out=bo,
        hidden_activation=hidden,
        output_activation=output,
        q_format=fmt,
    )


# ---------------------------------------------------------------------------
# model files


def save_model(path, model: MlpModel) -> None:
    """Structured text; lossless in real mode, bit-exact in fixed mode."""
    n_in, n_hidden, n_out = model.layer_sizes
    with open(path, "w") as fh:
        fh.write("mlp-model v1\n")
        fh.write(f"layers {n_in} {n_hidden} {n_out}\n")
        fh.write(f"hidden_activation {model.hidden_activation}\n")
        fh.write(f"output_activation {model.output_activation}\n")
        if model.is_fixed:
            fmt = model.q_format
            fh.write(f"mode fixed {fmt.total_bits} {fmt.fraction_bits}\n")

            def fmt_row(row):
                return " ".join(str(int(v)) for v in np.rint(row * fmt.scale))
        else:
            fh.write("mode real\n")

            def fmt_row(row):
                return " ".join(format(v, ".17g") for v in row)

        for tag, arr in (("wh", model.w_hidden), ("bh", model.b_hidden[None, :]),
                         ("wo", model.w_out), ("bo", model.b_out[None, :])):
            for row in arr:
                fh.write(f"{tag} {fmt_row(row)}\n")


def load_model(path) -> MlpModel:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != "mlp-model v1":
        raise ValueError(f"{path}: not a model file")
    sizes = lines[1].split()
    if sizes[0] != "layers" or len(sizes) != 4:
        raise ValueError(f"{path}: bad layers line {lines[1]!r}")
    n_in, n_hidden, n_out = (int(v) for v in sizes[1:])
    if not lines[2].startswith("hidden_activation ") or not lines[3].startswith("output_activation "):
        raise ValueError(f"{path}: activation lines missing or out of order")
    hidden_act = lines[2].split()[1]
    output_act = lines[3].split()[1]
    mode = lines[4].split()
    if mode[0] != "mode":
        raise ValueError(f"{path}: bad mode line {lines[4]!r}")
    fmt = None
    if mode[1] == "fixed":
        fmt = QFormat(int(mode[2]), int(mode[3]))
    elif mode[1] != "real":
        raise ValueError(f"{path}: unknown mode {mode[1]!r}")

    rows = {"wh": [], "bh": [], "wo": [], "bo": []}
    for line in lines[5:]:
        tag, rest = line.split(" ", 1)
        if tag not in rows:
            raise ValueError(f"{path}: unexpected row tag {tag!r}")
        if fmt is None:
            rows[tag].append([float(v) for v in rest.split()])
        else:
            rows[tag].append([int(v) / fmt.scale for v in rest.split()])
    wh = np.asarray(rows["wh"])
    bh = np.asarray(rows["bh"][0]) if rows["bh"] else np.zeros(0)
    wo = np.asarray(rows["wo"])
    bo = np.asarray(rows["bo"][0]) if rows["bo"] else np.zeros(0)
    if wh.shape != (n_hidden, n_in) or wo.shape != (n_out, n_hidden):
        raise ValueError(f"{path}: weight shapes disagree with layers line")
    return MlpModel(
        w_hidden=wh, b_hidden=bh, w_out=wo, b_out=bo,
        hidden_activation=hidden_act,
        output_activation=output_act,
        q_format=fmt,
    )
