"""Summary statistics with the reporting rules of the benchmark."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # a tail percentile is reported only with this many samples beyond it


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def tail_percentile(values, q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than MIN_BEYOND
    samples lie beyond it (too few to say anything about that tail)."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]
