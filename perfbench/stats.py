"""Order statistics shared by the benchmark and its tests."""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

#: A tail percentile is reported only where at least this many samples
#: lie beyond it, so one slow sample cannot set it alone.
TAIL_SAMPLES_BEYOND = 10


def quantile(samples: Sequence[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p``-quantile of ``samples``.

    A weighted mean of all order statistics, with weights from the
    Beta(p(n+1), (1-p)(n+1)) distribution.  The units of the corpus
    differ forty-fold in size, so re-run times form clusters with gaps
    between them; a single order statistic near a gap jumps to the next
    cluster from run to run, while this estimate moves smoothly.
    """
    if not samples:
        raise ValueError("quantile needs at least one sample")
    ordered = sorted(samples)
    weights = _hd_weights(len(ordered), p)
    return sum(w * x for w, x in zip(weights, ordered))


def _hd_weights(n: int, p: float) -> List[float]:
    """The Beta distribution's mass on each of ``[i/n, (i+1)/n]``."""
    steps = 16  # Simpson panels per interval
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(
            (a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm
        )

    weights = []
    width = 1.0 / (n * steps)
    for i in range(n):
        lo = i / n
        inner = sum(
            (4 if k % 2 else 2) * density(lo + k * width)
            for k in range(1, steps)
        )
        weights.append(
            (density(lo) + inner + density(lo + steps * width)) * width / 3
        )
    total = sum(weights)
    return [w / total for w in weights]


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with ``TAIL_SAMPLES_BEYOND`` samples beyond it.

    Returns ``(value, percentile, sample_count)``.  With ``n`` samples
    the ``k``-th smallest has ``n - k`` samples above it, so the
    percentile is ``100 * k / n`` with ``k = n - 10``.  The value is the
    :func:`quantile` estimate at that percentile.  Up to twenty samples
    have no such percentile above the median, which is no tail: the
    maximum is returned labelled as percentile 100, so a caller can see
    from the label that the tail is thin.
    """
    if not samples:
        raise ValueError("tail_percentile needs at least one sample")
    n = len(samples)
    k = n - TAIL_SAMPLES_BEYOND
    if k <= n / 2:
        return max(samples), 100.0, n
    return quantile(samples, k / n), 100.0 * k / n, n


def median(samples: Sequence[float]) -> float:
    """The Harrell-Davis estimate of the median."""
    return quantile(samples, 0.5)
