"""Order statistics with a sample-size guard.

A percentile is only reported when at least :data:`MIN_BEYOND` samples
lie beyond it; with fewer, the number is one or two outliers and moves
from run to run by itself.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank *q*-th percentile of *samples*.

    Raises :class:`ValueError` when fewer than :data:`MIN_BEYOND`
    samples lie beyond the rank, so a p95 needs at least 200 samples.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"at least {MIN_BEYOND} are required"
        )
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    """The median; refuses an empty sample."""
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)

