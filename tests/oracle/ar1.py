"""The defining AR(1) recurrence as a plain loop: the reference for the scans.

``y[k] = rho * y[k-1] + eps[k]`` with ``y[-1] = state``, one step at a
time.  The closed-form scans regroup this arithmetic, so they agree with
it to rounding, not bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def ar1_loop(rho: float, state: float, eps: Sequence[float]) -> np.ndarray:
    out = np.empty(len(eps))
    y = float(state)
    for k, e in enumerate(eps):
        y = rho * y + float(e)
        out[k] = y
    return out
