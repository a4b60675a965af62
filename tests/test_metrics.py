"""Metric ratios against a rational oracle, plus beat matching against
the greedy candidate loop in ``match_oracle.py``."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ecgarr.metrics import (
    ConfusionCounts,
    MetricsReport,
    compute_metrics,
    confusion_from_labels,
    format_report,
    match_beats,
    nearest_within,
)
from match_oracle import match_beats as greedy_match


def test_counts_validation_and_total():
    c = ConfusionCounts(1, 2, 3, 4)
    assert c.total == 10
    with pytest.raises(ValueError, match="tp"):
        ConfusionCounts(-1, 0, 0, 0)
    with pytest.raises(ValueError, match="fn"):
        ConfusionCounts(0, 0, 0, 1.5)


def test_counts_pool_by_addition():
    a = ConfusionCounts(1, 2, 3, 4)
    b = ConfusionCounts(10, 20, 30, 40)
    assert a + b == ConfusionCounts(11, 22, 33, 44)


def test_hand_counted_example():
    r = compute_metrics(ConfusionCounts(tp=2, tn=2, fp=1, fn=0))
    assert r.accuracy == 0.8
    assert r.sensitivity == 1.0
    assert r.specificity == float(Fraction(2, 3))
    assert r.ppv == float(Fraction(2, 3))


def test_all_true_positives():
    r = compute_metrics(ConfusionCounts(tp=7))
    assert r.accuracy == 1.0
    assert r.sensitivity == 1.0
    assert r.ppv == 1.0
    assert r.specificity is None  # no negative beats at all


def test_zero_total_errors():
    with pytest.raises(ValueError, match="zero beats"):
        compute_metrics(ConfusionCounts())


def test_undefined_metrics_are_none_not_zero():
    r = compute_metrics(ConfusionCounts(tn=5))
    assert r.sensitivity is None
    assert r.ppv is None
    assert r.accuracy == 1.0
    assert r.specificity == 1.0


def test_randomized_against_fraction_oracle():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 1000:
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 6, size=4))
        if tp + tn + fp + fn == 0:
            continue
        r = compute_metrics(ConfusionCounts(tp, tn, fp, fn))
        def oracle(num, den):
            return None if den == 0 else float(Fraction(num, den))
        assert r.accuracy == oracle(tp + tn, tp + tn + fp + fn)
        assert r.sensitivity == oracle(tp, tp + fn)
        assert r.specificity == oracle(tn, tn + fp)
        assert r.ppv == oracle(tp, tp + fp)
        checked += 1


def test_counts_past_2_53_against_fraction_oracle():
    # past 2**53 a count is no longer exact as a float: dividing the float
    # counts rounds three times, the integer quotient once
    rng = np.random.default_rng(53)
    float_quotient_differs = 0
    for _ in range(500):
        tp, tn, fp, fn = (int(v) for v in rng.integers(2**53, 2**62, size=4))
        r = compute_metrics(ConfusionCounts(tp, tn, fp, fn))
        for got, num, den in [(r.accuracy, tp + tn, tp + tn + fp + fn),
                              (r.sensitivity, tp, tp + fn), (r.specificity, tn, tn + fp),
                              (r.ppv, tp, tp + fp)]:
            assert got == float(Fraction(num, den))
            float_quotient_differs += got != float(num) / float(den)
    assert float_quotient_differs


def test_report_range_validation():
    with pytest.raises(ValueError, match="accuracy"):
        MetricsReport(1.2, None, None, None, ConfusionCounts(tp=1))


def test_confusion_from_labels():
    t = np.array([1, 1, 0, 0, 1, 0])
    p = np.array([1, 0, 0, 1, 1, 0])
    c = confusion_from_labels(t, p)
    assert (c.tp, c.tn, c.fp, c.fn) == (2, 2, 1, 1)
    with pytest.raises(ValueError, match="shapes"):
        confusion_from_labels([1], [1, 0])
    with pytest.raises(ValueError, match="0 or 1"):
        confusion_from_labels([2], [1])


def test_format_report_is_deterministic_text():
    r = compute_metrics(ConfusionCounts(tp=2, tn=2, fp=1, fn=0),
                        config={"activation": "pla", "seed": 7})
    text = format_report(r)
    assert text == (
        "beats 5\ntp 2\ntn 2\nfp 1\nfn 0\n"
        "accuracy 0.800000\nsensitivity 1.000000\n"
        "specificity 0.666667\nppv 0.666667\n"
        "config.activation pla\nconfig.seed 7\n"
    )
    undefined = format_report(compute_metrics(ConfusionCounts(tn=3)))
    assert "sensitivity undefined" in undefined


# ---------------------------------------------------------------------------
# beat matching


def test_match_identical_lists():
    idx = [100, 500, 900]
    m = match_beats(idx, idx, sampling_frequency=360.0)
    assert m.pairs == ((100, 100), (500, 500), (900, 900))
    assert m.unmatched_predictions == ()
    assert m.unmatched_annotations == ()


def test_match_small_offset_within_window():
    # 10 ms at 360 Hz is 3.6 samples, well inside the 18-sample window
    m = match_beats([104], [100], sampling_frequency=360.0)
    assert m.pairs == ((104, 100),)


def test_match_two_predictions_one_annotation():
    m = match_beats([95, 103], [100], sampling_frequency=1000.0)
    assert m.pairs == ((103, 100),)  # nearest wins
    assert m.unmatched_predictions == (95,)
    assert m.unmatched_annotations == ()


def test_match_two_annotations_one_prediction():
    m = match_beats([102], [100, 140], sampling_frequency=1000.0)
    assert m.pairs == ((102, 100),)
    assert m.unmatched_annotations == (140,)


def test_match_outside_window():
    m = match_beats([200], [100], sampling_frequency=1000.0)
    assert m.pairs == ()
    assert m.unmatched_predictions == (200,)
    assert m.unmatched_annotations == (100,)


def test_match_window_boundary_inclusive():
    # exactly 50 samples apart at 1 kHz with a 50 ms window
    m = match_beats([150], [100], sampling_frequency=1000.0)
    assert m.pairs == ((150, 100),)


def test_match_prefers_globally_nearest():
    m = match_beats([108, 112], [100, 110], sampling_frequency=1000.0)
    assert set(m.pairs) == {(108, 110), (112, 100)}
    assert m.unmatched_predictions == ()
    assert m.unmatched_annotations == ()


def test_match_count_conservation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pred = np.unique(rng.integers(0, 5000, size=rng.integers(0, 40)))
        ann = np.unique(rng.integers(0, 5000, size=rng.integers(0, 40)))
        m = match_beats(pred, ann, sampling_frequency=360.0)
        assert len(m.pairs) + len(m.unmatched_annotations) == len(ann)
        assert len(m.pairs) + len(m.unmatched_predictions) == len(pred)
        for p, a in m.pairs:
            assert abs(p - a) <= 50.0 * 360.0 / 1000.0


def test_match_input_validation():
    # nearest_within's order check sees both lists in the first round,
    # and an unsorted list beside an empty one too
    for predicted, annotated in (([5, 3], [1]), ([1], [5, 3]), ([5, 3], []), ([], [5, 3])):
        with pytest.raises(ValueError, match="^targets must be sorted ascending$"):
            match_beats(predicted, annotated, sampling_frequency=360.0)
    with pytest.raises(ValueError, match="sampling_frequency"):
        match_beats([1], [1], sampling_frequency=0.0)


@pytest.mark.parametrize("fs", [float("nan"), float("inf"), -float("inf")])
def test_match_rejects_a_rate_that_is_not_finite(fs):
    # a NaN rate once cast its window to int64 with a warning and matched nothing
    with pytest.raises(ValueError, match="sampling_frequency must be positive and finite"):
        match_beats([100], [100], sampling_frequency=fs)
    with pytest.raises(ValueError, match="sampling_frequency"):
        nearest_within(np.array([100]), np.array([100]), sampling_frequency=fs)


def test_match_rejects_fractional_indices():
    # a plain int64 cast would truncate 100.7 to 100 and match it
    with pytest.raises(ValueError, match=r"peak index 100\.7 is not an integer"):
        match_beats([100.7, 300.2], [100, 300], sampling_frequency=360.0)
    with pytest.raises(ValueError, match=r"peak index 300\.5 is not an integer"):
        match_beats([100, 300], [100.0, 300.5], sampling_frequency=360.0)
    m = match_beats([100.0, 300.0], np.array([100, 300]), sampling_frequency=360.0)
    assert m.pairs == ((100, 100), (300, 300))


@pytest.mark.parametrize("n_peaks", [0, 1, 2, 400])
def test_nearest_peak_matches_argmin_scan(n_peaks):
    rng = np.random.default_rng(n_peaks)
    # even peaks, a quarter of them repeated: two peaks have an integer
    # midpoint, so points tie between neighbours and between equal peaks
    peaks = rng.choice(np.arange(0, 4000, 2), size=n_peaks)
    peaks = np.sort(np.concatenate([peaks, peaks[: n_peaks // 4]]))
    points = np.arange(-60, 4060, dtype=np.int64)
    got = nearest_within(peaks, points, sampling_frequency=360.0)  # an 18-sample window
    assert got.dtype == np.int64
    for point, pos in zip(points, got):
        dist = np.abs(peaks - point)
        if peaks.size and dist.min() <= 18.0:
            assert pos == np.argmin(dist)  # the earliest of the nearest
        else:
            assert pos == -1


def test_nearest_tie_goes_to_the_first_of_equal_targets():
    targets = np.array([100, 100, 200, 200, 200])
    points = np.array([100, 150, 151, 200, 250, 251, 49, 50])
    got = nearest_within(targets, points, sampling_frequency=1000.0)  # a 50-sample window
    assert got.tolist() == [0, 0, 2, 2, 2, -1, -1, 0]


def test_nearest_reads_both_inputs_as_peak_indices():
    # plain lists once failed on .size, and a fractional target was accepted
    got = nearest_within([100, 200], [101, 260], sampling_frequency=360.0)
    assert got.dtype == np.int64 and got.tolist() == [0, -1]
    assert nearest_within([100.0, 200.0], np.array([199.0]),
                          sampling_frequency=360.0).tolist() == [1]
    with pytest.raises(ValueError, match=r"^peak index 200\.5 is not an integer$"):
        nearest_within([100, 200.5], [205], sampling_frequency=360.0)
    with pytest.raises(ValueError, match=r"^peak index 205\.5 is not an integer$"):
        nearest_within([100, 200], [205.5], sampling_frequency=360.0)


@pytest.mark.parametrize("targets", [[300, 100, 200], np.array([100, 300, 200, 400])])
def test_nearest_rejects_unsorted_targets(targets):
    # unsorted, a list once raised IndexError, and an array silently
    # missed target 200, 5 samples from the point
    with pytest.raises(ValueError, match="targets must be sorted ascending"):
        nearest_within(targets, [205], sampling_frequency=360.0)


def _chain(n, gaps, first):
    """n beats alternating between the sides, first (0 annotation, 1
    prediction) first, gaps[k] samples between beat k and k + 1."""
    beats = np.concatenate([[1000], 1000 + np.cumsum(gaps[: n - 1])])
    side = (np.arange(n) + first) % 2
    return beats[side == 1], beats[side == 0]


def test_match_beats_equals_the_greedy_oracle():
    rng = np.random.default_rng(2024)
    seen = Counter()
    for case in range(10_800):
        span = (50, 200, 2000)[case % 3]
        fs = (100.0, 360.0, 1000.0)[case // 3 % 3]
        pred = np.sort(rng.integers(0, span, size=rng.integers(0, 31)))
        ann = np.sort(rng.integers(0, span, size=rng.integers(0, 31)))
        got = match_beats(pred, ann, sampling_frequency=fs)
        want = greedy_match(pred, ann, fs)
        assert (got.pairs, got.unmatched_predictions, got.unmatched_annotations) == want, \
            (pred.tolist(), ann.tolist(), fs)
        # each annotation's paired prediction by position, one to one
        of = np.asarray(got.prediction_of, dtype=np.int64).reshape(-1)
        paired = of >= 0
        assert of.size == ann.size and np.unique(of[paired]).size == paired.sum()
        assert tuple(zip(pred[of[paired]].tolist(), ann[paired].tolist())) == got.pairs
        seen.update({"empty side": not pred.size or not ann.size,
                     "repeated prediction": np.unique(pred).size < pred.size,
                     "repeated annotation": np.unique(ann).size < ann.size,
                     "unpaired": bool(want[1] and want[2])})
    assert min(seen.values()) >= 300, seen


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("gaps, fs", [
    (np.arange(499, 99, -1), 10_000.0),  # steadily shrinking: one pair a round
    (np.full(399, 10), 360.0),           # equal: every tie points back
    (np.repeat(np.arange(18, 8, -1), 40), 360.0),  # stepped: ties within each step
])
def test_match_beats_equals_the_greedy_oracle_on_an_alternating_chain(gaps, fs, first):
    pred, ann = _chain(400, gaps, first)
    got = match_beats(pred, ann, sampling_frequency=fs)
    want = greedy_match(pred, ann, fs)
    assert (got.pairs, got.unmatched_predictions, got.unmatched_annotations) == want
    assert len(got.pairs) == 200
