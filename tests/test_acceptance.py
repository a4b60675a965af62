"""Acceptance checks, one test per criterion.

Each test prints a single verdict line (visible with -s or in captured
output) naming the criterion, its outcome, and its runtime against the
pinned bound.  Criterion 9 needs real recordings and skips unless the
ECGARR_MITBIH_DIR environment variable points at a directory holding
at least five .hea/.atr record pairs.
"""

import glob
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from ecgarr.activation import platanh, platanh_fixed_raw_array
from ecgarr.experiment import PipelineConfig, run_experiment
from ecgarr.fixedpoint import QFormat
from ecgarr.metrics import ConfusionCounts, compute_metrics
from ecgarr.mlp import (
    MlpModel,
    gradients,
    init_model,
    mse,
    predict_batch,
    quantize_model,
    train,
)
from ecgarr.selflearn import epsilon_for, run_self_learner, timeout_samples
from ecgarr.wfdb_io import decode_format212, parse_annotations
from wfdb_fixtures import SYMBOL_CODES, encode_format212, write_annotations

PLA_BORDERS = (0.5, 1.125, 1.475, 2.02, 3.02, 5.58)
MITBIH_ENV = "ECGARR_MITBIH_DIR"


class Criterion:
    """Collects subchecks, prints one verdict line, enforces the bound."""

    def __init__(self, number, label, bound_seconds):
        self.number = number
        self.label = label
        self.bound = bound_seconds
        self.failures = []
        self.started = time.perf_counter()

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)

    def conclude(self, detail=""):
        elapsed = time.perf_counter() - self.started
        timely = elapsed < self.bound if self.bound else True
        ok = not self.failures and timely
        line = (f"criterion {self.number} ({self.label}): "
                f"{'PASS' if ok else 'FAIL'} in {elapsed:.2f}s")
        if self.bound:
            line += f" (bound {self.bound:g}s)"
        if detail:
            line += f" [{detail}]"
        print(line)
        if not timely:
            self.failures.append(f"runtime {elapsed:.2f}s over {self.bound:g}s bound")
        assert not self.failures, "; ".join(self.failures)


def blob_beats(rng, n_per_class, spread=0.07):
    """Two well-separated 12-dim clusters shaped like scaled features."""
    c0 = np.full(12, -0.25)
    c1 = np.full(12, 0.25)
    x = np.vstack([
        c0 + rng.normal(0, spread, size=(n_per_class, 12)),
        c1 + rng.normal(0, spread, size=(n_per_class, 12)),
    ])
    y = np.concatenate([np.zeros(n_per_class, dtype=int),
                        np.ones(n_per_class, dtype=int)])
    order = rng.permutation(len(y))
    return x[order], y[order]


def test_criterion_1_activation_max_error():
    c = Criterion(1, "largest tanh approximation error", 1.0)
    grid = np.linspace(-6.0, 6.0, 120001)
    err = np.abs(platanh(grid) - np.tanh(grid))
    worst = int(np.argmax(err))
    c.check(abs(err[worst] - 0.03788) <= 1e-4,
            f"max error {err[worst]:.6f} not within 1e-4 of 0.03788")
    c.check(abs(abs(grid[worst]) - 0.5) <= 1e-9,
            f"max error attained at |x|={abs(grid[worst])}, expected 0.5")
    c.conclude(f"max {err[worst]:.5f} at |x|={abs(grid[worst]):g}")


def test_criterion_2_activation_structure():
    c = Criterion(2, "piecewise-linear structure", 5.0)
    for b in PLA_BORDERS:
        for signed in (b, -b):
            gap = abs(platanh(signed + 1e-10) - platanh(signed - 1e-10))
            c.check(gap <= 1e-9, f"discontinuity {gap:.2e} at border {signed}")
    rng = np.random.default_rng(2024)
    x = rng.uniform(-8.0, 8.0, size=100_000)
    y = platanh(x)
    c.check(np.all(platanh(-x) == -y), "odd symmetry violated")
    order = np.argsort(x)
    c.check(np.all(np.diff(y[order]) >= 0.0), "not monotone")
    c.check(np.all(np.abs(y) <= 1.0), "output escapes [-1, 1]")
    c.check(platanh(5.58) == 1.0 and platanh(-5.58) == -1.0,
            "saturation point is not exactly +-1")
    c.conclude("12 borders, 1e5 random points")


def test_criterion_3_fixed_point_fidelity():
    c = Criterion(3, "fixed-point fidelity", 30.0)
    fmt = QFormat(24, 12)
    rng = np.random.default_rng(77)
    x = rng.uniform(-8.0, 8.0, size=10_000)
    raw_in = np.round(x * fmt.scale).astype(np.int64)
    fixed = platanh_fixed_raw_array(raw_in, fmt) / fmt.scale
    real = platanh(raw_in / fmt.scale)
    worst = float(np.max(np.abs(fixed - real)))
    c.check(worst <= 1.5 / fmt.scale,
            f"activation error {worst:.3e} exceeds 1.5*2^-12")

    x_train, y_train = blob_beats(np.random.default_rng(5), 100)
    arch = init_model(seed=5, activation="pla")
    model, _ = train(arch, x_train, y_train, max_epochs=200, seed=5)
    x_probe, _ = blob_beats(np.random.default_rng(6), 500)
    real_pred = predict_batch(model, x_probe)
    fixed_pred = predict_batch(quantize_model(model, fmt), x_probe)
    agreement = float(np.mean(real_pred == fixed_pred))
    c.check(agreement >= 0.99,
            f"quantized model agrees on {agreement:.1%} of 1000 beats, need 99%")
    c.conclude(f"activation worst {worst * fmt.scale:.3f} counts, "
               f"model agreement {agreement:.1%}")


def _near_border(values, clearance=1e-4):
    v = np.abs(np.asarray(values)).reshape(-1, 1)
    return bool(np.any(np.abs(v - np.array(PLA_BORDERS)) < clearance))


def _fd_gradients(model, x, targets, h=1e-5):
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


def test_criterion_4_gradient_correctness():
    c = Criterion(4, "backprop vs finite differences", 30.0)
    modes = ("exact", "pla")
    rng = np.random.default_rng(404)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        activation = modes[checked % 2]
        m = init_model(seed=int(rng.integers(2**31)), activation=activation)
        x = rng.uniform(-1.5, 1.5, size=(3, 12))
        targets = rng.uniform(0, 1, size=(3, 2))
        h_pre = x @ m.w_hidden.T + m.b_hidden
        h_act = np.tanh(h_pre) if activation == "exact" else platanh(h_pre)
        o_pre = h_act @ m.w_out.T + m.b_out
        if _near_border(h_pre) or _near_border(o_pre):
            continue
        for ga, gf in zip(gradients(m, x, targets), _fd_gradients(m, x, targets)):
            denom = np.maximum(np.abs(ga), np.abs(gf))
            big = denom > 1e-4
            c.check(np.all(np.abs(ga - gf)[big] <= 1e-6 * denom[big]),
                    f"relative gradient mismatch (model {checked})")
            c.check(np.all(np.abs(ga - gf)[~big] <= 1e-9),
                    f"absolute gradient mismatch (model {checked})")
        checked += 1
    c.check(checked == 100, f"only {checked} clean models in {attempts} draws")
    c.conclude(f"{checked} random models, h=1e-5")


def test_criterion_5_self_learner_scenario():
    c = Criterion(5, "rhythm monitor timeout scenario", 1.0)
    full = np.array([400 + 345 * k for k in range(40)], dtype=np.int64)

    events, _, _ = run_self_learner(full, tolerance_fraction=0.15)
    c.check(len(events) == 0, f"{len(events)} events on the unbroken train")

    broken = np.delete(full, 20)
    events, _, _ = run_self_learner(broken, tolerance_fraction=0.15)
    c.check(len(events) == 1 and events[0].kind == "missing_beat",
            f"expected exactly one missing-beat event, got "
            f"{[e.kind for e in events]}")
    last_before_gap = int(full[19])
    c.check(events and events[0].sample_index == last_before_gap + 397,
            f"event at {events[0].sample_index if events else None}, "
            f"expected {last_before_gap + 397}")

    c.check(timeout_samples(345, 0.15) == 397, "timeout(345) != 397")
    c.check(epsilon_for(120.0, 0.15) == 18.0, "epsilon(120 ms) != 18 ms exactly")
    c.conclude("one deletion -> one event at +397")


def test_criterion_6_metrics_exactness():
    c = Criterion(6, "metrics vs rational oracle", 1.0)
    rng = np.random.default_rng(66)
    compared = 0
    while compared < 1000:
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 500, size=4))
        if tp + tn + fp + fn == 0:
            continue
        report = compute_metrics(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
        oracle = {
            "accuracy": (Fraction(tp + tn, tp + tn + fp + fn)),
            "sensitivity": Fraction(tp, tp + fn) if tp + fn else None,
            "specificity": Fraction(tn, tn + fp) if tn + fp else None,
            "ppv": Fraction(tp, tp + fp) if tp + fp else None,
        }
        for name, want in oracle.items():
            got = getattr(report, name)
            if want is None:
                c.check(got is None, f"{name} defined for empty denominator")
            else:
                c.check(got == float(want), f"{name} mismatch on {(tp, tn, fp, fn)}")
        compared += 1
    c.conclude("1000 random confusion matrices")


def test_criterion_7_parser_round_trips():
    c = Criterion(7, "record format round trips", 5.0)
    rng = np.random.default_rng(7777)
    values = rng.integers(-2048, 2048, size=200_000)
    decoded = decode_format212(encode_format212(values.tolist()), values.size)
    c.check(np.array_equal(decoded, values),
            "format-212 decode does not invert the independent encoder")

    symbols = sorted(SYMBOL_CODES)
    for trial in range(20):
        n = int(rng.integers(1, 120))
        deltas = rng.integers(1, 3000, size=n)  # some exceed one-word range
        indices = np.cumsum(deltas)
        entries = [(int(i), symbols[int(rng.integers(len(symbols)))])
                   for i in indices]
        parsed = parse_annotations(write_annotations(entries))
        got = [(a.sample_index, a.symbol) for a in parsed]
        c.check(got == entries, f"annotation round trip failed on trial {trial}")
    c.conclude("1e5 sample pairs, 20 random annotation streams")


def test_criterion_8_training_sanity():
    c = Criterion(8, "training reaches separation", 60.0)
    x, y = blob_beats(np.random.default_rng(88), 100)
    finals = {}
    for activation in ("exact", "pla"):
        arch = init_model(seed=88, activation=activation)
        model, report = train(arch, x, y, max_epochs=200, seed=88)
        wrong = int(np.sum(predict_batch(model, x) != y))
        c.check(wrong == 0, f"{activation}: {wrong} training misclassifications")
        c.check(report.mse_history[-1] < 0.01,
                f"{activation}: final mse {report.mse_history[-1]:.4f} >= 0.01")
        finals[activation] = report.mse_history[-1]
    c.conclude(f"final mse exact {finals['exact']:.2e} / "
               f"pla {finals['pla']:.2e}")


def _mitbih_headers():
    root = os.environ.get(MITBIH_ENV)
    if not root or not os.path.isdir(root):
        return []
    headers = sorted(glob.glob(os.path.join(root, "*.hea")))
    return [h for h in headers
            if os.path.exists(os.path.splitext(h)[0] + ".atr")]


def test_criterion_9_dataset_reproduction():
    headers = _mitbih_headers()
    if len(headers) < 5:
        pytest.skip(f"recordings not provided: set {MITBIH_ENV} to a directory "
                    f"with at least five .hea/.atr pairs")
    subset = tuple(headers[:10])
    c = Criterion(9, "dataset-level reproduction", None)

    accuracies = {}
    for classifier in ("fixed", "pla", "exact"):
        config = PipelineConfig(record_paths=subset, classifier=classifier,
                                detector="ann", seed=7)
        accuracies[classifier] = run_experiment(config).pooled.accuracy
    c.check(accuracies["fixed"] >= 0.98,
            f"fixed-point pooled accuracy {accuracies['fixed']:.4f} < 0.98")
    gap = abs(accuracies["exact"] - accuracies["pla"])
    c.check(gap <= 0.005,
            f"exact-vs-approximate accuracy gap {gap:.4f} > 0.005")

    # the monitor is the unsupervised deployment path: it judges peaks
    # found by the detector, never annotation positions
    monitor = run_experiment(PipelineConfig(
        record_paths=subset, classifier="self-learner", detector="uni-dwt"))
    sl_acc = monitor.pooled.accuracy
    sl_spec = monitor.pooled.specificity
    c.check(sl_acc is not None and sl_acc >= 0.95,
            f"monitor accuracy {sl_acc} < 0.95")
    c.check(sl_spec is not None and sl_spec >= 0.97,
            f"monitor specificity {sl_spec} < 0.97")
    c.conclude(f"{len(subset)} records: fixed {accuracies['fixed']:.4f}, "
               f"gap {gap:.4f}, monitor acc {sl_acc:.4f} spec {sl_spec:.4f}")
