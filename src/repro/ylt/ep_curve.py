"""Exceedance-probability curves.

Two curves are standard in catastrophe risk reporting:

* the **Aggregate Exceedance Probability (AEP)** curve — the probability that
  the *annual aggregate* loss exceeds a threshold, estimated from the year
  losses of the YLT;
* the **Occurrence Exceedance Probability (OEP)** curve — the probability that
  the *largest single occurrence* loss in a year exceeds a threshold,
  estimated from the per-trial maximum occurrence losses.

Both are empirical curves over the Monte-Carlo trials; the PML at a return
period of ``R`` years is the loss quantile at exceedance probability ``1/R``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ensure_positive

__all__ = ["EPCurve", "aep_curve", "oep_curve"]


@dataclass(frozen=True)
class EPCurve:
    """An empirical exceedance-probability curve.

    Attributes
    ----------
    losses:
        Loss thresholds in descending exceedance-probability order (i.e.
        ascending loss order).
    exceedance_probabilities:
        Estimated probability that the annual (or occurrence) loss strictly
        exceeds the corresponding threshold.
    kind:
        ``"AEP"`` or ``"OEP"``.
    """

    losses: np.ndarray
    exceedance_probabilities: np.ndarray
    kind: str = "AEP"

    def __post_init__(self) -> None:
        losses = np.asarray(self.losses, dtype=np.float64)
        probs = np.asarray(self.exceedance_probabilities, dtype=np.float64)
        if losses.shape != probs.shape or losses.ndim != 1:
            raise ValueError("losses and exceedance_probabilities must be equal-length 1-D arrays")
        if losses.size and np.any(np.diff(losses) < 0):
            raise ValueError("losses must be non-decreasing")
        if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
            raise ValueError("exceedance probabilities must lie in [0, 1]")
        if probs.size and np.any(np.diff(probs) > 1e-12):
            raise ValueError("exceedance probabilities must be non-increasing")
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "exceedance_probabilities", probs)

    @property
    def n_points(self) -> int:
        """Number of points on the curve."""
        return int(self.losses.shape[0])

    def loss_at_return_period(self, return_period_years: float) -> float:
        """Loss at the given return period (the PML at that return period).

        The return period ``R`` corresponds to exceedance probability
        ``1 / R``; the curve is interpolated linearly in probability, and
        clamped to its endpoints outside the observed range.
        """
        ensure_positive(return_period_years, "return_period_years")
        target = 1.0 / return_period_years
        if self.n_points == 0:
            return 0.0
        probs = self.exceedance_probabilities
        losses = self.losses
        if target >= probs[0]:
            return float(losses[0])
        if target <= probs[-1]:
            return float(losses[-1])
        # probs is non-increasing; interpolate on the reversed arrays.
        return float(np.interp(target, probs[::-1], losses[::-1]))

    def exceedance_probability(self, loss: float) -> float:
        """Estimated probability of exceeding ``loss`` in a year."""
        if loss < 0:
            raise ValueError(f"loss must be non-negative, got {loss}")
        if self.n_points == 0:
            return 0.0
        if loss < self.losses[0]:
            return float(self.exceedance_probabilities[0])
        if loss >= self.losses[-1]:
            return float(self.exceedance_probabilities[-1])
        return float(np.interp(loss, self.losses, self.exceedance_probabilities))

    def return_period(self, loss: float) -> float:
        """Return period (years) of the given loss level (inf if never exceeded)."""
        prob = self.exceedance_probability(loss)
        if prob <= 0.0:
            return float("inf")
        return 1.0 / prob


def _empirical_curve(annual_values: np.ndarray, kind: str, max_points: int | None) -> EPCurve:
    values = np.asarray(annual_values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"annual values must be 1-D, got shape {values.shape}")
    if values.size == 0:
        raise ValueError("cannot build an EP curve from zero trials")
    if np.any(values < 0):
        raise ValueError("annual values must be non-negative")
    n = values.size
    sorted_losses = np.sort(values)
    # Exceedance probability of the k-th smallest loss (0-based): fraction of
    # trials with a strictly greater loss, estimated as (n - k - 1 + 0.5) / n
    # (the Hazen plotting position, which avoids 0 and 1 at the extremes).
    exceedance = (n - np.arange(1, n + 1) + 0.5) / n
    if max_points is not None and n > max_points:
        idx = np.unique(np.linspace(0, n - 1, max_points).round().astype(np.int64))
        sorted_losses = sorted_losses[idx]
        exceedance = exceedance[idx]
    return EPCurve(sorted_losses, exceedance, kind)


def aep_curve(year_losses: np.ndarray, max_points: int | None = None) -> EPCurve:
    """Aggregate EP curve from per-trial year losses."""
    return _empirical_curve(year_losses, "AEP", max_points)


def oep_curve(max_occurrence_losses: np.ndarray, max_points: int | None = None) -> EPCurve:
    """Occurrence EP curve from per-trial maximum occurrence losses."""
    return _empirical_curve(max_occurrence_losses, "OEP", max_points)
