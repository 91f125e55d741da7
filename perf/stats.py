"""Order statistics shared by run.py and compare.py."""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1) of ``values``, linearly interpolated
    between order statistics (numpy's default ``linear`` method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3

