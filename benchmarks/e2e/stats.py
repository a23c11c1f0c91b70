"""Order statistics for the benchmark's reports (no third-party deps)."""

from __future__ import annotations

import statistics
from typing import Sequence

#: A tail percentile is only reported when at least this many samples lie
#: beyond it (the choosing-metrics rule); fewer and the "percentile" is
#: really the position of a handful of outliers.
MIN_BEYOND = 10

_TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th percentile."""
    return int(n * (100.0 - q) / 100.0 + 1e-9)


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least MIN_BEYOND samples beyond it.

    Falls back to the median when even p75 is not supported (n < 40).
    """
    for q in _TAIL_CANDIDATES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return 50.0


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """``(q, value)`` for the highest supported tail percentile of ``samples``."""
    q = tail_percentile(len(samples))
    return q, percentile(samples, q)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) < 2:
        value = samples[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def iqr_share(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the driver's spread."""
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / q2 if q2 else 0.0
