"""Order statistics and bound verdicts shared by the runner and ``compare``.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the "exclusive"
method), because that is how run-to-run spread is judged against the
bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

OK = "ok"
REGRESSION = "regression"
UNRESOLVED = "unresolved"


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], p: int) -> float:
    """The ``p``-th percentile (1..99), interpolated between order statistics."""
    if not values:
        raise ValueError("percentile of no samples")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def worsening(parent: float, change: float, better: str) -> float:
    """Share by which ``change`` is worse than ``parent`` (< 0: better)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if parent == 0:
        return 0.0 if change == parent else math.inf
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    bound: float,
    better: str,
) -> str:
    """``ok``, ``regression`` or ``unresolved`` for one metric on one workload.

    The change regresses when its median is worse than the parent's by
    more than ``bound``.  When either side's own spread is wider than the
    bound the medians cannot resolve that, so the verdict is
    ``unresolved`` -- unless every change run beats every parent run
    (``ok``) or every parent run beats every change run by a median
    margin beyond the bound (``regression``).
    """
    worse = worsening(median(parent), median(change), better)
    if all(_beats(c, p, better) for c in change for p in parent):
        return OK
    if max(spread(parent), spread(change)) > bound:
        if worse > bound and all(
            _beats(p, c, better) for c in change for p in parent
        ):
            return REGRESSION
        return UNRESOLVED
    return REGRESSION if worse > bound else OK
