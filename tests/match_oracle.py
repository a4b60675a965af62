"""Reference beat matcher: the greedy candidate loop the package once ran.

Every candidate pair within the match window is listed as (distance,
annotation position, prediction position), the list is sorted, and the
pairs are taken in that order, each beat at most once.  It shares no
code with ``ecgarr``, so ``ecgarr.metrics.match_beats`` (rounds of
mutual nearest beats) is checked against it pair for pair.
"""

import numpy as np

MATCH_WINDOW_MS = 50.0


def match_beats(predicted, annotated, sampling_frequency):
    """(pairs, unmatched predictions, unmatched annotations), as
    ``ecgarr.metrics.MatchResult`` holds them."""
    pred = np.asarray(predicted, dtype=np.int64)
    ann = np.asarray(annotated, dtype=np.int64)
    window = MATCH_WINDOW_MS * sampling_frequency / 1000.0

    candidates = []
    lo = np.searchsorted(pred, ann - np.int64(np.ceil(window)), side="left")
    hi = np.searchsorted(pred, ann + np.int64(np.ceil(window)), side="right")
    for i, a in enumerate(ann):
        for j in range(lo[i], hi[i]):
            dist = abs(int(pred[j]) - int(a))
            if dist <= window:
                candidates.append((dist, i, j))
    candidates.sort()

    ann_used = set()
    pred_used = set()
    pairs = []
    for _, i, j in candidates:
        if i in ann_used or j in pred_used:
            continue
        ann_used.add(i)
        pred_used.add(j)
        pairs.append((int(pred[j]), int(ann[i])))
    pairs.sort(key=lambda pair: pair[1])
    return (
        tuple(pairs),
        tuple(int(p) for j, p in enumerate(pred) if j not in pred_used),
        tuple(int(a) for i, a in enumerate(ann) if i not in ann_used),
    )
