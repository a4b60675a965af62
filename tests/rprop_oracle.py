"""Reference Rprop- update, one parameter array at a time.

It shares no code with ecgarr: the five hyperparameters are literals,
and every update returns new arrays instead of writing in place.  Tests
use it as the oracle for ``ecgarr.mlp.rprop_step``, which updates one
flat vector in place.
"""

from dataclasses import dataclass

import numpy as np

ETA_PLUS = 1.2
ETA_MINUS = 0.5
DELTA_INIT = 0.1
DELTA_MAX = 50.0
DELTA_MIN = 1e-6


@dataclass(frozen=True)
class RpropState:
    """Per-weight step sizes and previous-gradient memory.

    Sign-change handling: the step shrinks and the weight holds still
    for one round (previous gradient zeroed so no double shrink).
    """

    steps: tuple          # one array per parameter group
    prev_grads: tuple

    @classmethod
    def for_arrays(cls, arrays) -> "RpropState":
        return cls(steps=tuple(np.full_like(p, DELTA_INIT) for p in arrays),
                   prev_grads=tuple(np.zeros_like(p) for p in arrays))


def rprop_step(arrays, state: RpropState, grads):
    """(new arrays, new state) after one update of every weight."""
    new_params = []
    new_steps = []
    new_prev = []
    for p, g, step, pg in zip(arrays, grads, state.steps, state.prev_grads):
        g = np.asarray(g, dtype=np.float64)
        product = g * pg
        step = np.where(product > 0, np.minimum(step * ETA_PLUS, DELTA_MAX),
                        np.where(product < 0, np.maximum(step * ETA_MINUS, DELTA_MIN),
                                 step))
        g_eff = np.where(product < 0, 0.0, g)  # skip move after a sign flip
        new_params.append(p - np.sign(g_eff) * step)
        new_steps.append(step)
        new_prev.append(g_eff)
    return tuple(new_params), RpropState(steps=tuple(new_steps), prev_grads=tuple(new_prev))
