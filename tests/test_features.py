"""Feature-extraction tests with dense linear-algebra oracles."""

import re

import numpy as np
import pytest

from ecgarr.dsp import detect_r_peaks
from ecgarr.experiment import label_peaks, read_beats
from ecgarr.features import (
    BeatFeatureRow,
    EdgeBeatError,
    FeatureVector,
    RankDeficiencyWarning,
    beat_table,
    build_feature_vector,
    feature_matrix,
    fit_pca,
    load_features,
    load_pca_model,
    project,
    save_features,
    save_pca_model,
    window_beat,
)
from wfdb_fixtures import classifier_record, dropout_record


# ---------------------------------------------------------------------------
# windowing


def test_window_exact_fit():
    sig = np.arange(181, dtype=float)
    w = window_beat(sig, 90)
    assert isinstance(w, np.ndarray) and w.shape == (181,)
    assert abs(w.mean()) < 1e-12
    assert np.allclose(w, sig - sig.mean())


def test_window_edge_beats_rejected():
    sig = np.zeros(500)
    with pytest.raises(EdgeBeatError):
        window_beat(sig, 50)
    with pytest.raises(EdgeBeatError):
        window_beat(sig, 89)
    with pytest.raises(EdgeBeatError):
        window_beat(sig, 410)
    window_beat(sig, 90)
    window_beat(sig, 409)


def test_window_constant_signal_is_zero():
    w = window_beat(np.full(400, 17.5), 200)
    assert np.max(np.abs(w)) == 0.0


def test_window_mean_removed():
    rng = np.random.default_rng(0)
    sig = rng.standard_normal(1000) + 42.0
    w = window_beat(sig, 500)
    assert abs(w.mean()) < 1e-12


# ---------------------------------------------------------------------------
# PCA


def test_rank_one_data_recovers_direction():
    rng = np.random.default_rng(1)
    d = 40
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    t = rng.standard_normal(200)
    x = np.outer(t, v) + 3.0
    with pytest.warns(RankDeficiencyWarning):
        model = fit_pca(list(x), k=10)
    c0 = model.components[0]
    assert abs(abs(np.dot(c0, v)) - 1.0) < 1e-9
    assert c0[np.argmax(np.abs(c0))] > 0  # sign convention
    assert np.all(model.explained_variance[1:] < 1e-9)
    assert np.all(model.components[1:] == 0.0)


def test_isotropic_data_has_flat_spectrum():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((10_000, 20))
    model = fit_pca(list(x), k=10)
    ev = model.explained_variance
    assert ev[0] / ev[-1] < 1.1
    assert np.all(np.diff(ev) <= 1e-12)  # nonincreasing


def test_duplicate_windows_give_zero_model():
    w = np.linspace(0, 1, 30)
    with pytest.warns(RankDeficiencyWarning):
        model = fit_pca([w] * 25, k=10)
    assert np.all(model.explained_variance == 0.0)
    assert np.all(model.components == 0.0)
    assert np.allclose(model.mean, w)
    assert np.all(project(model, w) == 0.0)


def test_components_orthonormal():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 30))
    model = fit_pca(list(x), k=10)
    gram = model.components @ model.components.T
    assert np.max(np.abs(gram - np.eye(10))) < 1e-6


def test_fit_rejects_what_is_not_a_stack_of_windows():
    rng = np.random.default_rng(4)
    for shape in ((30,), (12, 5, 6)):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            fit_pca(rng.standard_normal(shape), k=3)


def test_fit_requires_enough_windows():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((9, 30))
    with pytest.raises(ValueError):
        fit_pca(list(x), k=10)
    with pytest.raises(ValueError):
        fit_pca(list(rng.standard_normal((40, 30))), k=31)


def test_projection_against_dense_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 25))
    model = fit_pca(list(x), k=10)
    w = rng.standard_normal(25)
    got = project(model, w)
    centered = [w[j] - model.mean[j] for j in range(25)]
    want = [sum(model.components[i][j] * centered[j] for j in range(25)) for i in range(10)]
    assert np.max(np.abs(got - np.asarray(want))) < 1e-9


def test_projection_special_points():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((80, 30))
    model = fit_pca(list(x), k=10)
    assert np.max(np.abs(project(model, model.mean))) < 1e-12
    p = project(model, model.mean + model.components[0])
    want = np.zeros(10)
    want[0] = 1.0
    assert np.max(np.abs(p - want)) < 1e-9


def test_projection_linearity():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 20))
    model = fit_pca(list(x), k=10)
    w1, w2 = rng.standard_normal(20), rng.standard_normal(20)
    a, b = 0.3, -1.7
    combo = a * (w1 - model.mean) + b * (w2 - model.mean) + model.mean
    lhs = project(model, combo)
    rhs = a * project(model, w1) + b * project(model, w2)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_reconstruction_error_nonincreasing_in_k():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((300, 30)) * np.linspace(3, 0.1, 30)
    model = fit_pca(list(x), k=10)
    xc = x - model.mean
    errors = []
    for k in range(1, 11):
        c = model.components[:k]
        resid = xc - (xc @ c.T) @ c
        errors.append(float(np.mean(np.sum(resid * resid, axis=1))))
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))


def test_pca_on_actual_beat_windows():
    rng = np.random.default_rng(9)
    sig = rng.standard_normal(20_000)
    windows = [window_beat(sig, int(r)) for r in rng.integers(90, 19_900, size=40)]
    model = fit_pca(windows, k=10)
    assert model.components.shape == (10, 181)
    p = project(model, windows[0])
    assert p.shape == (10,)


# ---------------------------------------------------------------------------
# feature vectors


def test_feature_vector_zero_projection():
    rng = np.random.default_rng(10)
    model = fit_pca(list(rng.standard_normal((30, 15))), k=10)
    fv = build_feature_vector(model, np.zeros(10), 0.69, 0.69)
    assert fv.values.shape == (12,)
    assert np.all(fv.values[:10] == 0.0)
    assert fv.values[10] == 0.345
    assert fv.values[11] == 0.345


def test_feature_vector_scaling_uses_leading_eigenvalue():
    model = fit_pca([[0, 0], [2, 0], [-2, 0], [0, 0.001], [0, -0.001]], k=2)
    # leading eigenvalue = var of first coordinate = 8/4 = 2
    assert abs(model.explained_variance[0] - 2.0) < 1e-9
    fv = build_feature_vector(model, np.asarray([1.0] * 10), 1.0, 1.0)
    assert np.allclose(fv.values[:10], 1.0 / (4.0 * np.sqrt(2.0)))


def test_feature_vector_rejects_bad_rr():
    rng = np.random.default_rng(11)
    model = fit_pca(list(rng.standard_normal((30, 15))), k=10)
    with pytest.raises(ValueError):
        build_feature_vector(model, np.zeros(10), 0.0, 0.69)
    with pytest.raises(ValueError):
        build_feature_vector(model, np.zeros(10), 0.69, -0.1)
    with pytest.raises(ValueError):
        build_feature_vector(model, np.zeros(9), 0.69, 0.69)


def test_feature_vector_shape_enforced():
    with pytest.raises(ValueError):
        FeatureVector(np.zeros(11))


# ---------------------------------------------------------------------------
# beat tables: the whole-record path against the per-beat one


def _per_beat(signal, fs, peaks, labels, half_width=90):
    """The per-beat loop: window_beat on each labeled interior peak."""
    kept, windows, rr = [], [], []
    for i in range(1, len(peaks) - 1):
        if labels[i] < 0:
            continue
        try:
            windows.append(window_beat(signal, int(peaks[i]), half_width))
        except EdgeBeatError:
            continue
        kept.append(i)
        rr.append((float(peaks[i] - peaks[i - 1]) / fs, float(peaks[i + 1] - peaks[i]) / fs))
    return kept, windows, rr


def _assert_table_matches_loop(signal, fs, peaks, labels, pca=None, half_width=90):
    table = beat_table(signal, fs, peaks, labels, half_width)
    kept, windows, rr = _per_beat(signal, fs, peaks, labels, half_width)
    assert table.r_index.tolist() == [int(peaks[i]) for i in kept]
    assert table.labels.tolist() == [int(labels[i]) for i in kept]
    assert table.windows.shape == (len(kept), 2 * half_width + 1)
    assert table.windows.tobytes() == np.asarray(windows, dtype=np.float64).tobytes()
    assert table.rr.shape == (len(kept), 2)
    assert table.rr.tobytes() == np.asarray(rr, dtype=np.float64).tobytes()
    if pca is None:
        pca = fit_pca(table.windows)
    got = feature_matrix(pca, table)
    want = [build_feature_vector(pca, project(pca, w), *pair).values
            for w, pair in zip(windows, rr)]
    assert got.shape == (len(kept), 12)
    assert got.tobytes() == np.asarray(want, dtype=np.float64).tobytes()
    return table


@pytest.mark.parametrize("make", [classifier_record, dropout_record])
def test_beat_table_matches_per_beat_loop_on_fixtures(tmp_path, make):
    _, signal, fs, _, ann_idx, ann_lab = read_beats(make(tmp_path, "rec"), 0, "ann")
    _assert_table_matches_loop(signal, fs, ann_idx, ann_lab)
    peaks = detect_r_peaks(signal, fs).r_indices
    _assert_table_matches_loop(signal, fs, peaks, label_peaks(peaks, ann_idx, ann_lab, fs))


def test_beat_table_matches_per_beat_loop_on_random_signal():
    rng = np.random.default_rng(21)
    signal = rng.normal(0.0, 300.0, 20_000)
    peaks = np.sort(rng.choice(signal.size, size=150, replace=False))
    labels = rng.integers(-1, 2, size=peaks.size)
    table = _assert_table_matches_loop(signal, 250.0, peaks, labels)
    assert 10 < len(table) < peaks.size
    _assert_table_matches_loop(signal, 250.0, peaks, labels, half_width=25)


def test_beat_table_edges():
    rng = np.random.default_rng(22)
    signal = rng.standard_normal(1000)
    pca = fit_pca(rng.standard_normal((40, 181)))
    # 90 and 909 touch the first and the last sample; 89 and 910 need one more
    peaks = np.array([10, 89, 90, 500, 909, 910, 990])
    table = _assert_table_matches_loop(signal, 360.0, peaks, np.zeros(7), pca)
    assert table.r_index.tolist() == [90, 500, 909]
    # the first and last peaks go even though their windows fit
    table = _assert_table_matches_loop(signal, 360.0, [200, 400, 600], [0, 1, 0], pca)
    assert table.r_index.tolist() == [400]
    table = _assert_table_matches_loop(signal, 360.0, [200, 300, 400, 500, 600],
                                       [1, -1, 1, -1, 0], pca)
    assert table.r_index.tolist() == [400]
    assert table.labels.tolist() == [1]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_beat_table_few_peaks(n):
    rng = np.random.default_rng(23)
    signal = rng.standard_normal(1000)
    pca = fit_pca(rng.standard_normal((40, 181)))
    peaks = [200, 400, 600][:n]
    table = _assert_table_matches_loop(signal, 360.0, peaks, [0] * n, pca)
    assert len(table) == max(n - 2, 0)
    assert len(table[:0]) == 0 and table[:0].windows.shape == (0, 181)


def test_beat_table_duplicate_peaks_fail_like_per_beat_path():
    rng = np.random.default_rng(24)
    signal = rng.standard_normal(1000)
    pca = fit_pca(rng.standard_normal((40, 181)))
    table = beat_table(signal, 360.0, [200, 400, 400, 600], [0, 0, 0, 0])
    assert table.r_index.tolist() == [400, 400]
    with pytest.raises(ValueError) as per_beat:
        build_feature_vector(pca, project(pca, table.windows[0]), *table.rr[0])
    with pytest.raises(ValueError) as whole:
        feature_matrix(pca, table)
    assert str(whole.value) == str(per_beat.value)
    assert "R-R intervals must be positive" in str(whole.value)


def test_beat_table_rejects_fractional_peaks():
    signal = np.zeros(2000)
    # a plain int64 cast would cut the window at 500 instead
    with pytest.raises(ValueError, match=r"peak index 500\.6 is not an integer"):
        beat_table(signal, 360.0, [200.0, 500.6, 800.2, 1100.9], [0, 0, 0, 0])
    table = beat_table(signal, 360.0, [200.0, 500.0, 800.0, 1100.0], [0, 1, 0, 1])
    assert table.r_index.dtype == np.int64
    assert table.r_index.tolist() == [500, 800]


def test_beat_table_slices_by_row():
    rng = np.random.default_rng(25)
    signal = rng.standard_normal(3000)
    table = beat_table(signal, 360.0, np.arange(100, 3000, 200), np.arange(15) % 2)
    head, tail = table[:6], table[6:]
    for field in ("r_index", "windows", "rr", "labels"):
        assert np.array_equal(np.concatenate([getattr(head, field), getattr(tail, field)]),
                              getattr(table, field))
    assert (len(head), len(tail)) == (6, len(table) - 6)


def test_project_stack_equals_rows():
    rng = np.random.default_rng(26)
    pca = fit_pca(rng.standard_normal((60, 181)) * 50.0)
    stack = rng.standard_normal((300, 181)) * 80.0
    got = project(pca, stack)
    assert got.shape == (300, 10)
    assert got.tobytes() == np.stack([project(pca, w) for w in stack]).tobytes()
    assert project(pca, stack[:0]).shape == (0, 10)
    with pytest.raises(ValueError):
        project(pca, stack.reshape(3, 100, 181))
    with pytest.raises(ValueError):
        project(pca, stack[:, :180])
    with pytest.raises(ValueError):
        project(pca, stack[0, :180])


# ---------------------------------------------------------------------------
# file round trips


def test_pca_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    model = fit_pca(list(rng.standard_normal((60, 25))), k=10)
    path = tmp_path / "model.txt"
    save_pca_model(path, model)
    back = load_pca_model(path)
    assert np.array_equal(back.mean, model.mean)
    assert np.array_equal(back.components, model.components)
    assert np.array_equal(back.explained_variance, model.explained_variance)


def test_pca_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a PCA model file$"):
        load_pca_model(path)


def test_pca_model_file_truncated_after_each_line(tmp_path):
    rng = np.random.default_rng(14)
    saved = tmp_path / "model.txt"
    save_pca_model(saved, fit_pca(list(rng.standard_normal((30, 7))), k=3))
    lines = saved.read_text().splitlines(keepends=True)
    cut = tmp_path / "cut.txt"
    for keep in range(1, len(lines)):
        cut.write_text("".join(lines[:keep]))
        missing = lines[keep].split()[0]
        with pytest.raises(ValueError, match=f"^{re.escape(str(cut))}: "
                                             f"the file ends before its {missing} line$"):
            load_pca_model(cut)


# the line replaced, by its tag; what replaces it; and the message, where
# {next} is the line after the one replaced
PCA_MALFORMED = {
    "window not an integer": ("window", "window 7.5",
                              "line 2: window value '7.5' is not an integer"),
    "two component counts": ("components", "components 3 4",
                             "line 3: bad components line 'components 3 4'"),
    "short mean": ("mean", "mean 1 2", "line 4: bad mean line 'mean 1 2'"),
    "variance not a number": ("variance", "variance 1 x 2",
                              "line 5: variance value 'x' is not a finite number"),
    "comp under another tag": ("comp", "row 1 2 3 4 5 6 7",
                               "line 6: bad comp line 'row 1 2 3 4 5 6 7'"),
    # a blank line is skipped, so the mean's place holds the variance line
    "blank mean line": ("mean", "", "line 5: bad mean line {next!r}"),
}


@pytest.mark.parametrize("case", sorted(PCA_MALFORMED))
def test_pca_model_file_malformed_lines_name_the_path(tmp_path, case):
    tag, line, message = PCA_MALFORMED[case]
    rng = np.random.default_rng(14)
    path = tmp_path / "model.txt"
    save_pca_model(path, fit_pca(list(rng.standard_normal((30, 7))), k=3))
    lines = path.read_text().splitlines()
    at = [ln.split()[0] for ln in lines].index(tag)
    lines[at] = line
    path.write_text("\n".join(lines) + "\n")
    message = message.format(next=lines[at + 1])
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_pca_model(path)


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    rows = [
        BeatFeatureRow(
            record_id=f"rec{i}",
            r_index=int(rng.integers(90, 10_000)),
            features=rng.standard_normal(12),
            label=("normal" if i % 2 else "arrhythmia"),
        )
        for i in range(20)
    ]
    path = tmp_path / "features.csv"
    save_features(path, rows)
    back = load_features(path)
    assert len(back) == 20
    for a, b in zip(rows, back):
        assert a.record_id == b.record_id
        assert a.r_index == b.r_index
        assert a.label == b.label
        assert np.array_equal(a.features, b.features)


def test_feature_file_rejects_wrong_width(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_features(path)


def test_feature_file_rejects_non_finite_values(tmp_path):
    rows = [BeatFeatureRow(record_id="rec", r_index=100 + i, features=np.zeros(12),
                           label="0") for i in range(3)]
    rows[1].features[4] = np.nan
    path = tmp_path / "features.txt"
    save_features(path, rows)
    with pytest.raises(ValueError, match=r"features\.txt: line 3: feature 'nan' is not a "
                                         "finite number$"):
        load_features(path)


@pytest.mark.parametrize("column, text, message", [
    (1, "2.5", "r_index '2.5' is not an integer"),
    (5, "abc", "feature 'abc' is not a finite number"),
    (14, "0,extra", "row with 16 fields, expected 15"),
])
def test_feature_file_names_the_line_of_a_malformed_value(tmp_path, column, text, message):
    rows = [BeatFeatureRow(record_id="rec", r_index=100 + i, features=np.zeros(12),
                           label="0") for i in range(3)]
    path = tmp_path / "features.txt"
    save_features(path, rows)
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[column] = text
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 3: {message}')}$"):
        load_features(path)


def test_feature_file_checks_labels_only_when_given(tmp_path):
    rows = [BeatFeatureRow(record_id="rec", r_index=100 + i, features=np.zeros(12),
                           label=label) for i, label in enumerate(["0", "1", "2"])]
    path = tmp_path / "features.txt"
    save_features(path, rows)
    assert [r.label for r in load_features(path)] == ["0", "1", "2"]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 4: label ')}'2' "
                                         "is not 0 or 1$"):
        load_features(path, labels=("0", "1"))
