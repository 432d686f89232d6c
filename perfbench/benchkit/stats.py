"""Order statistics and the two-sided comparison rule of the benchmark.

Percentiles are nearest-rank: the ``q``-th percentile of ``n`` sorted
samples is the sample at 1-based rank ``ceil(q / 100 * n)``.  A tail
percentile is only meaningful when at least ``MIN_BEYOND`` samples lie
beyond it, so :func:`tail_percentile` never returns a rank closer than
that to the top of the sample.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Return the nearest-rank ``q``-th percentile of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(samples)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def tail_percentile(samples: Sequence[float], q: float) -> tuple[float, float]:
    """Return ``(value, percentile)`` of the tail estimate nearest ``q``.

    The rank is ``ceil(q / 100 * n)`` capped at ``n - MIN_BEYOND``, so
    ten samples always lie beyond the value; ``percentile`` is the
    percentile actually reported (``q`` itself when the sample is big
    enough, e.g. p99 of 1,000 samples or p95 of 200).
    """
    n = len(samples)
    if n <= MIN_BEYOND:
        raise ValueError(
            f"{n} samples leave fewer than {MIN_BEYOND} beyond any percentile"
        )
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    rank = min(max(math.ceil(q / 100.0 * n), 1), n - MIN_BEYOND)
    return sorted(samples)[rank - 1], 100.0 * rank / n


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """Return ``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a constant)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    bound: float,
    better: str,
) -> str:
    """Classify ``change`` against ``parent`` for one metric on one workload.

    ``better`` / ``worse`` / ``unchanged`` / ``unresolved``, by these rules:

    * better: the change wins at least nine tenths of the run pairs
      (ties count for neither) and its median beats the parent's by
      more than the parent's interquartile distance;
    * when either side's relative spread exceeds ``bound`` the runs
      cannot resolve a regression of that size: unresolved, unless
      every change run reads better (unchanged) or worse (worse) than
      every parent run;
    * otherwise worse when the median is worse than the parent's by
      more than ``bound`` (a share of the parent's median), else
      unchanged.
    """
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    if not parent or not change:
        raise ValueError("both sides need at least one run")
    sign = 1.0 if better == "lower" else -1.0

    def gain(a: float, b: float) -> float:
        """Positive when ``b`` is better than ``a``."""
        return sign * (a - b)

    q1_a, med_a, q3_a = quartiles(parent)
    _, med_b, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    if wins >= 0.9 * len(pairs) and gain(med_a, med_b) > (q3_a - q1_a):
        return "better"
    if max(relative_spread(parent), relative_spread(change)) > bound:
        if all(gain(a, b) > 0 for a in parent for b in change):
            return "unchanged"
        if all(gain(a, b) < 0 for a in parent for b in change):
            return "worse"
        return "unresolved"
    if -gain(med_a, med_b) > bound * abs(med_a):
        return "worse"
    return "unchanged"
