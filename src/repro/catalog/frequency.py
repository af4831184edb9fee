"""Event-occurrence frequency models.

The Year Event Table simulator needs to decide *how many* catastrophic events
occur in each simulated contractual year.  The industry-standard choice is a
**Poisson** model — independent occurrences at a constant annual rate —
implemented as a vectorised sampler returning one count per trial.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RNGLike, derive_rng
from repro.utils.validation import ensure_positive

__all__ = ["FrequencyModel", "PoissonFrequency"]


class FrequencyModel(abc.ABC):
    """Abstract annual occurrence-count model."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected number of occurrences per year."""

    @abc.abstractmethod
    def sample_counts(self, n_trials: int, rng: RNGLike = None) -> np.ndarray:
        """Sample the number of occurrences for ``n_trials`` independent years."""

    def clipped_counts(
        self,
        n_trials: int,
        rng: RNGLike = None,
        min_events: int = 0,
        max_events: int | None = None,
    ) -> np.ndarray:
        """Sample counts and clip them into ``[min_events, max_events]``.

        The paper notes that trials hold "approximately between 800 to 1500"
        events; clipping lets workload presets enforce such practical bounds
        while retaining the stochastic structure.
        """
        if min_events < 0:
            raise ValueError(f"min_events must be non-negative, got {min_events}")
        if max_events is not None and max_events < min_events:
            raise ValueError("max_events must be >= min_events")
        counts = self.sample_counts(n_trials, rng)
        upper = np.iinfo(np.int64).max if max_events is None else int(max_events)
        return np.clip(counts, int(min_events), upper)


@dataclass(frozen=True)
class PoissonFrequency(FrequencyModel):
    """Poisson occurrence model with a fixed annual rate."""

    rate: float

    def __post_init__(self) -> None:
        ensure_positive(self.rate, "rate")

    @property
    def mean(self) -> float:
        return float(self.rate)

    def sample_counts(self, n_trials: int, rng: RNGLike = None) -> np.ndarray:
        if n_trials < 0:
            raise ValueError(f"n_trials must be non-negative, got {n_trials}")
        generator = derive_rng(rng)
        return generator.poisson(self.rate, size=n_trials).astype(np.int64)
