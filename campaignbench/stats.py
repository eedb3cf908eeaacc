"""Median and quartile helpers shared by ``run.py`` and ``spread.py``."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def median(values: Sequence[float]) -> float:
    """The median; raises ValueError on an empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile.

    Uses ``statistics.quantiles(values, n=4)`` (its default exclusive
    method), the definition the benchmark's acceptance check uses; a
    single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 if it is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
