"""Order statistics used by the benchmark and its steadiness report."""

from __future__ import annotations

import math
import statistics

TAIL_MIN = 10   # samples a reported percentile must leave above it


def percentile(samples, q):
    """Nearest-rank percentile: the smallest sample with at least a share
    q of the samples at or below it.

    Refuses when fewer than TAIL_MIN samples would lie above it, so that a
    reported p90 is never the run's maximum in disguise."""
    xs = sorted(samples)
    rank = max(1, math.ceil(q * len(xs)))
    if len(xs) - rank < TAIL_MIN:
        raise ValueError(f"p{round(q * 100)} of {len(xs)} samples leaves "
                         f"{len(xs) - rank} above it; need {TAIL_MIN}")
    return xs[rank - 1]


def spread(values):
    """(median, Q1, Q3, (Q3 - Q1) / median), quartiles as
    statistics.quantiles(values, n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")
