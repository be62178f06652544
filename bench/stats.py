"""Order statistics over operation latencies in which a failure counts as +inf.

A failed operation misses every latency limit, so it ranks above every
success.  Percentiles are nearest-rank order statistics, never interpolated:
interpolation between a finite value and +inf gives nan, and an order
statistic can only fall when an +inf sample becomes finite.
"""
from __future__ import annotations

import math
import sys

#: stands in for +inf in the printed JSON, which has no infinity
INF_REPORTED = sys.float_info.max


def rank(n: int, q: float) -> int:
    """1-based nearest rank of quantile ``q`` (0 < q <= 1) among ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    return min(n, max(1, math.ceil(round(q * n, 9))))


def order_statistic(values, q: float) -> float:
    """The nearest-rank ``q`` quantile; ``+inf`` samples sort last."""
    xs = sorted(values)
    return xs[rank(len(xs), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the ``q`` order statistic."""
    return n - rank(n, q)


def reported(value: float) -> float:
    """A value the result JSON can carry: +inf becomes the largest float."""
    return INF_REPORTED if math.isinf(value) else value
