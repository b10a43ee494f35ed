"""Summary statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math
import statistics

# Tail percentiles considered, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    k = (len(ordered) - 1) * p / 100.0
    lo = int(math.floor(k))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the ``p``-th percentile."""
    return n - math.ceil(n * p / 100.0)


def tail_percentile(samples):
    """``(p, value)`` for the highest tail percentile with at least
    :data:`MIN_BEYOND` samples beyond it, or ``None`` when there are too
    few samples for any."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p, percentile(samples, p)
    return None


def median(samples) -> float:
    return statistics.median(samples)


def mean(samples) -> float:
    return statistics.fmean(samples)
