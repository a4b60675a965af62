"""Per-beat feature vectors: 10 principal components + 2 R-R intervals.

A beat is the 181-sample window centered on its R peak (90 either
side), mean-removed to kill baseline wander.  Windows are compressed
through PCA fitted on training beats only; the 10 projections are
scaled into a tanh-friendly range by the leading eigenvalue, and the
neighbouring R-R intervals (seconds) are halved to land in [0, 1] for
ordinary rhythms.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .dsp import peak_indices
from .textio import integer, naming, numbers, real, tagged_lines

__all__ = [
    "BeatFeatureRow",
    "BeatTable",
    "EdgeBeatError",
    "FeatureVector",
    "PCAModel",
    "PCA_COMPONENTS",
    "RankDeficiencyWarning",
    "WINDOW_HALF_WIDTH",
    "beat_table",
    "build_feature_vector",
    "feature_matrix",
    "fit_pca",
    "load_features",
    "load_pca_model",
    "project",
    "save_features",
    "save_pca_model",
    "window_beat",
]

WINDOW_HALF_WIDTH = 90  # 90 + peak + 90 = 181 samples
PCA_COMPONENTS = 10  # PCA scores per beat, ahead of its 2 R-R intervals


class EdgeBeatError(ValueError):
    """R peak too close to a record edge for a full window."""


class RankDeficiencyWarning(UserWarning):
    pass


def window_beat(signal, r_index: int, half_width: int = WINDOW_HALF_WIDTH) -> np.ndarray:
    """Cut the mean-removed window around one R peak.

    Raises EdgeBeatError when the window would stick out of the record;
    callers drop such beats.
    """
    x = np.asarray(signal, dtype=np.float64)
    if r_index - half_width < 0 or r_index + half_width >= x.size:
        raise EdgeBeatError(
            f"beat at {r_index} needs samples "
            f"[{r_index - half_width}, {r_index + half_width}] "
            f"but record has {x.size}"
        )
    w = x[r_index - half_width : r_index + half_width + 1]
    return w - w.mean()


@dataclass(frozen=True)
class BeatTable:
    """One row per usable beat of a record, in time order."""

    r_index: np.ndarray  # (n,) R peak sample indices
    windows: np.ndarray  # (n, 2h+1) mean-removed windows
    rr: np.ndarray       # (n, 2) previous and next R-R interval, seconds
    labels: np.ndarray   # (n,) 0 normal, 1 arrhythmia

    def __len__(self) -> int:
        return int(self.r_index.size)

    def __getitem__(self, rows) -> "BeatTable":
        return BeatTable(self.r_index[rows], self.windows[rows], self.rr[rows],
                         self.labels[rows])


def beat_table(signal, fs: float, peaks, labels,
               half_width: int = WINDOW_HALF_WIDTH) -> BeatTable:
    """Every interior peak whose label is >= 0 (-1: no annotation matched)
    and whose window fits the record; each window equals window_beat's."""
    x = np.asarray(signal, dtype=np.float64)
    r = peak_indices(peaks)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != r.shape:
        raise ValueError(f"{r.size} peaks but {labels.size} labels")
    inner = np.arange(1, r.size - 1)
    keep = inner[(labels[inner] >= 0) & (r[inner] >= half_width)
                 & (r[inner] + half_width < x.size)]
    windows = x[r[keep, None] + np.arange(-half_width, half_width + 1)]
    return BeatTable(
        r_index=r[keep],
        windows=windows - windows.mean(axis=1, keepdims=True),
        rr=np.stack([r[keep] - r[keep - 1], r[keep + 1] - r[keep]], axis=1) / fs,
        labels=labels[keep],
    )


# ---------------------------------------------------------------------------
# PCA


@dataclass(frozen=True)
class PCAModel:
    mean: np.ndarray
    components: np.ndarray  # (k, d), rows orthonormal except zero padding
    explained_variance: np.ndarray  # (k,), nonincreasing, >= 0


def fit_pca(windows, k: int = PCA_COMPONENTS) -> PCAModel:
    """Top-k eigendecomposition of the sample covariance of the windows.

    Components come out ordered by descending eigenvalue with a
    deterministic sign (largest-magnitude entry positive).  When the
    data has numerical rank below k, the missing directions are padded
    with zero vectors and zero variance and a RankDeficiencyWarning is
    emitted; downstream projections on those rows are identically zero.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d stack of windows, got shape {x.shape}")
    n, d = x.shape
    if n < k:
        raise ValueError(f"need at least k={k} windows to fit, got {n}")
    if k < 1 or k > d:
        raise ValueError(f"k={k} outside 1..{d}")

    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / (n - 1) if n > 1 else np.zeros((d, d))
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    evals = np.maximum(evals[order], 0.0)
    comps = evecs[:, order].T.copy()

    # relative cut for genuine spectra plus an absolute floor for pure
    # roundoff (duplicate windows center to ~eps-sized residuals whose
    # covariance still has 1e-30-ish eigenvalues)
    amp = float(np.max(np.abs(x))) if x.size else 0.0
    tol = max(
        float(evals[0]) * 1e-10,
        (np.finfo(np.float64).eps * amp) ** 2 * d * 100.0,
    )
    padded = 0
    for i in range(k):
        if evals[i] <= tol:
            comps[i] = 0.0
            evals[i] = 0.0
            padded += 1
        else:
            j = int(np.argmax(np.abs(comps[i])))
            if comps[i, j] < 0:
                comps[i] = -comps[i]
    if padded:
        warnings.warn(
            f"window data has numerical rank {k - padded}; "
            f"{padded} of {k} components zero-padded",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return PCAModel(mean=mean, components=comps, explained_variance=evals)


def project(model: PCAModel, window) -> np.ndarray:
    """Component scores, components @ (window - mean), of one window or of
    each row of a stack (one matrix-vector product per row, so a row's
    scores equal its window's own, bit for bit)."""
    x = np.asarray(window, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1:] != model.mean.shape:
        raise ValueError(f"window shape {x.shape} does not match model ({model.mean.shape})")
    return (model.components @ (x - model.mean)[..., None])[..., 0]


# ---------------------------------------------------------------------------
# feature vectors


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray  # 10 scaled projections + scaled rr_prev + scaled rr_next

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (12,):
            raise ValueError(f"feature vector must have 12 values, got shape {v.shape}")
        object.__setattr__(self, "values", v)


def build_feature_vector(model: PCAModel, projection, rr_prev: float, rr_next: float) -> FeatureVector:
    """Assemble the 12-value classifier input.

    Projections are divided by 4*sqrt(leading eigenvalue), putting
    roughly +-2 sigma of the dominant mode inside [-0.5, 0.5]; R-R
    intervals (seconds, must be positive) are divided by 2.
    """
    p = np.asarray(projection, dtype=np.float64)
    return FeatureVector(_scaled(model, p, np.array([rr_prev, rr_next], dtype=np.float64)))


def feature_matrix(model: PCAModel, table: BeatTable) -> np.ndarray:
    """(n, 12) classifier inputs of a beat table; row i equals
    build_feature_vector on beat i's projection and R-R intervals."""
    return _scaled(model, project(model, table.windows), table.rr)


def _scaled(model: PCAModel, projections: np.ndarray, rr: np.ndarray) -> np.ndarray:
    """Scaled projections next to halved R-R intervals, along the last axis."""
    if projections.shape[-1:] != (PCA_COMPONENTS,) or projections.ndim != rr.ndim:
        raise ValueError(f"projection must have {PCA_COMPONENTS} values, "
                         f"got shape {projections.shape}")
    bad = ~(rr > 0).all(axis=-1)
    if bad.any():
        rr_prev, rr_next = rr[bad][0] if rr.ndim == 2 else rr
        raise ValueError(f"R-R intervals must be positive, got {rr_prev} and {rr_next}")
    ev0 = float(model.explained_variance[0])
    scale = 1.0 / (4.0 * np.sqrt(ev0)) if ev0 > 0 else 0.0
    return np.concatenate([projections * scale, rr / 2.0], axis=-1)


# ---------------------------------------------------------------------------
# text formats


@dataclass(frozen=True)
class BeatFeatureRow:
    record_id: str
    r_index: int
    features: np.ndarray
    label: str


def save_features(path, rows) -> None:
    """One beat per CSV row: record id, r_index, 12 values, label."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["record", "r_index"] + [f"f{i:02d}" for i in range(12)] + ["label"]
        )
        for row in rows:
            writer.writerow(
                [row.record_id, row.r_index]
                + [format(v, ".17g") for v in row.features]
                + [row.label]
            )


def load_features(path, labels=None) -> list[BeatFeatureRow]:
    """The rows of a save_features table.  A malformed value, or a label
    not in labels when they are given, raises ValueError naming path and
    the 1-based line."""
    out = []
    with open(path, newline="") as fh:
        lines = fh.readlines()
    with naming(path):
        reader = csv.reader(lines)
        if len(next(reader, ())) != 15:
            raise ValueError("not a feature table")
        for rec in reader:
            line = reader.line_num
            if len(rec) != 15:
                raise ValueError(f"line {line}: row with {len(rec)} fields, expected 15")
            r_index = integer(rec[1], "r_index", line)
            features = np.asarray([real(v, "feature", line) for v in rec[2:14]])
            if labels is not None and rec[14] not in labels:
                raise ValueError(f"line {line}: label {rec[14]!r} is not {' or '.join(labels)}")
            out.append(BeatFeatureRow(rec[0], r_index, features, rec[14]))
        if not out:
            raise ValueError("no beats")
    return out


def save_pca_model(path, model: PCAModel) -> None:
    k, d = model.components.shape
    with open(path, "w") as fh:
        fh.write("pca-model v1\n")
        fh.write(f"window {d}\n")
        fh.write(f"components {k}\n")
        fh.write("mean " + " ".join(format(v, ".17g") for v in model.mean) + "\n")
        fh.write("variance " + " ".join(format(v, ".17g") for v in model.explained_variance) + "\n")
        for row in model.components:
            fh.write("comp " + " ".join(format(v, ".17g") for v in row) + "\n")


def load_pca_model(path) -> PCAModel:
    """A model from a save_pca_model file.  A malformed or truncated file
    raises ValueError naming path."""
    with tagged_lines(path, "pca-model v1", "PCA model") as lines:
        (d,) = numbers(integer, lines, 0, "window", 1)
        (k,) = numbers(integer, lines, 1, "components", 1)
        mean = np.asarray(numbers(real, lines, 2, "mean", d))
        variance = np.asarray(numbers(real, lines, 3, "variance", k))
        comps = np.asarray([numbers(real, lines, 4 + i, "comp", d) for i in range(k)])
    return PCAModel(mean=mean, components=comps.reshape(k, d), explained_variance=variance)
