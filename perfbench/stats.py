"""Order statistics shared by the benchmark processes (stdlib only)."""

from __future__ import annotations

import math
import statistics

# Percentiles considered for the tail, lowest first. The tail is the highest
# of them, up to a workload's cap, that still leaves at least TAIL_MIN_BEYOND
# samples above it, so a short run never reports a tail resting on one or two
# samples.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending, nonempty list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: list[float], cap: float = 100.0) -> tuple[float, float, int]:
    """Highest ladder percentile, at most ``cap``, with ten samples above it.

    Returns (value, percentile, samples strictly above the value). When
    even the median has fewer than ten samples above it, the median is
    returned with its true count, so the shortfall shows in the report.
    The cap lets a workload keep one percentile across runs whose op
    counts differ: without it the choice flips where a run's count crosses
    a ladder step, and the value jumps between op kinds of unequal cost.
    """
    ordered = sorted(values)
    best = None
    for pct in (p for p in TAIL_LADDER if p <= cap):
        value = nearest_rank(ordered, pct)
        beyond = sum(1 for v in ordered if v > value)
        if beyond < TAIL_MIN_BEYOND:
            break
        best = (value, pct, beyond)
    if best is None:
        value = nearest_rank(ordered, TAIL_LADDER[0])
        best = (value, TAIL_LADDER[0], sum(1 for v in ordered if v > value))
    return best


def median(values) -> float:
    return float(statistics.median(values))


def kind_median_gmean(values: list[float], kinds: list[str]) -> float:
    """Geometric mean, over the distinct kinds, of each kind's median value.

    Every kind weighs the same however often a round runs it, and no kind's
    value can jump to another's: a pooled median of ops of unequal cost
    lands on one kind, and on which one changes when kinds slow unequally.
    """
    by_kind: dict[str, list[float]] = {}
    for value, kind in zip(values, kinds):
        by_kind.setdefault(kind, []).append(value)
    return math.exp(statistics.fmean(math.log(median(v)) for v in by_kind.values()))
