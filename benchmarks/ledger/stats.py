"""Small-sample statistics the ledger reports: percentiles, the tail rule, spreads."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles the tail rule may report, lowest first.
TAIL_LADDER: tuple[float, ...] = (0.50, 0.75, 0.90, 0.95, 0.99, 0.999)

#: Samples that must lie beyond a percentile before it is reported.
TAIL_SAMPLES_BEYOND = 10

#: Rounds every workload's timed ops are split into for the noise estimate.
N_ROUNDS = 3


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample (``q`` in ``(0, 1]``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(int(math.ceil(q * len(ordered))) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


def samples_floor(q: float) -> int:
    """Fewest samples for which percentile ``q`` has ten samples beyond it."""
    return int(math.ceil(TAIL_SAMPLES_BEYOND / (1.0 - q) - 1e-9))


def tail_quantile(n_samples: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the median does not qualify (fewer than 20 samples).
    """
    best = None
    for q in TAIL_LADDER:
        if n_samples >= samples_floor(q):
            best = q
    return best


def split_rounds(values: Sequence[float], n_rounds: int = N_ROUNDS) -> list[list[float]]:
    """``n_rounds`` equal consecutive slices (the remainder is dropped)."""
    size = len(values) // n_rounds
    return [list(values[i * size : (i + 1) * size]) for i in range(n_rounds)] if size else []


def spread(values: Sequence[float]) -> float:
    """(max - min) / median — the run's own noise estimate over its rounds."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0
