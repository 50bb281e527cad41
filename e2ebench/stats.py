"""Order statistics for latency samples (``median`` is the stdlib's)."""

from __future__ import annotations

import math
from statistics import median
from typing import Dict, Sequence

#: samples that should lie beyond a reported tail percentile
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile of ``n``."""
    return n - math.ceil(p / 100.0 * n)


def summary(samples: Sequence[float], tail_p: float) -> Dict[str, object]:
    """Median plus the ``tail_p``-th percentile, with the count behind each."""
    n = len(samples)
    return {
        "n": n,
        "p50": median(samples) if n else None,
        "tail_p": tail_p,
        "tail": percentile(samples, tail_p) if n else None,
        "beyond_tail": beyond(n, tail_p),
    }
