"""Order statistics the benchmark reports: medians, the tail rule, spreads."""

from __future__ import annotations

import statistics
from collections.abc import Sequence

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile that has at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  With ``n`` samples
    the answer is the ``(n - 10)``-th smallest, i.e. the percentile
    ``100 * (n - 10) / n``; exactly ten samples lie above it.  With ten or
    fewer samples no percentile qualifies, so the maximum is returned with
    the count of samples beyond it (zero) to say so.
    """
    if not values:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND  # 1-based rank of the tail sample
    return ordered[k - 1], 100.0 * k / n, n - k


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0
