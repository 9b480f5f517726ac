"""Growth-law fitting for measured model metrics."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np


def fit_power(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit of ``y = c * x^k``; returns ``(k, c)``.

    Zero/negative values are rejected (they have no log).
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("fit_power requires positive data")
    k, logc = np.polyfit(np.log(x), np.log(y), 1)
    return float(k), float(math.exp(logc))


def fit_polylog(ps: Sequence[int], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit of ``y = c * (log2 P)^k``; returns ``(k, c)``.

    This is the natural fit for Table 1's ``O(log^k P)`` IO/PIM-time
    bounds measured across machine sizes.
    """
    logs = [math.log2(p) for p in ps]
    if any(v <= 0 for v in logs):
        raise ValueError("fit_polylog requires P >= 2")
    return fit_power(logs, ys)

