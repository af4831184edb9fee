"""Event-severity models.

Severity models describe the ground-up loss of a single occurrence.  They are
used in two places:

* the catalog generator draws a *mean* severity per event from a peril-level
  severity model, and
* the catastrophe model (:mod:`repro.hazard`) uses the severity scale together
  with vulnerability curves to produce exposure-specific expected losses.

The heavy-tailed lognormal family is provided, parameterised by mean and
coefficient of variation behind the abstract :class:`SeverityModel`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RNGLike, derive_rng
from repro.utils.validation import ensure_positive

__all__ = ["SeverityModel", "LognormalSeverity"]


class SeverityModel(abc.ABC):
    """Abstract ground-up severity model."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected ground-up loss of one occurrence."""

    @property
    @abc.abstractmethod
    def cv(self) -> float:
        """Coefficient of variation (std / mean) of the occurrence loss."""

    @abc.abstractmethod
    def sample(self, n: int, rng: RNGLike = None) -> np.ndarray:
        """Sample ``n`` independent occurrence losses."""

    @property
    def std(self) -> float:
        """Standard deviation of the occurrence loss."""
        return self.mean * self.cv


@dataclass(frozen=True)
class LognormalSeverity(SeverityModel):
    """Lognormal severity parameterised by mean and coefficient of variation."""

    mean_loss: float
    cv_loss: float

    def __post_init__(self) -> None:
        ensure_positive(self.mean_loss, "mean_loss")
        ensure_positive(self.cv_loss, "cv_loss")

    @property
    def mean(self) -> float:
        return float(self.mean_loss)

    @property
    def cv(self) -> float:
        return float(self.cv_loss)

    @property
    def sigma(self) -> float:
        """Log-space standard deviation."""
        return math.sqrt(math.log1p(self.cv_loss**2))

    @property
    def mu(self) -> float:
        """Log-space mean."""
        return math.log(self.mean_loss) - 0.5 * self.sigma**2

    def sample(self, n: int, rng: RNGLike = None) -> np.ndarray:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        generator = derive_rng(rng)
        return generator.lognormal(self.mu, self.sigma, size=n)
