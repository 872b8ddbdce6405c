"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
from typing import Optional, Sequence

__all__ = ["MIN_BEYOND", "percentile", "geomean"]

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None when fewer than
    :data:`MIN_BEYOND` samples lie above it (p90 needs 100 samples)."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    index = math.ceil(q / 100.0 * n) - 1
    if index < 0 or n - 1 - index < MIN_BEYOND:
        return None
    return sorted(samples)[index]


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
