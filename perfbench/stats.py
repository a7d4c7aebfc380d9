"""Small numeric helpers shared by the benchmark's processes."""

from __future__ import annotations

import math
import resource
import statistics
from typing import List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def cost_growth(costs: List[float]) -> float:
    """Mean cost of the last fifth of the operations divided by the
    mean cost of the first fifth."""
    k = max(1, len(costs) // 5)
    first = sum(costs[:k])
    return sum(costs[-k:]) / first if first else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss``, KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
