"""Event catalog containers.

The catalog is stored column-wise in NumPy arrays so that the Year Event
Table simulator and the catastrophe model can operate on it without Python
loops.  Event identifiers are dense integers ``0 .. size-1``: the paper's
direct-access-table design (Section III-B) relies on event ids being usable
directly as array indices into a dense loss vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Sequence

import numpy as np

from repro.catalog.peril import Peril
from repro.utils.validation import ensure_non_negative, ensure_positive

__all__ = ["Event", "EventCatalog"]


@dataclass(frozen=True)
class Event:
    """A single stochastic event.

    Attributes
    ----------
    event_id:
        Dense integer identifier, unique within the catalog.
    peril:
        Peril of the event.
    annual_rate:
        Poisson occurrence rate of this particular event per contractual year.
    mean_severity:
        Mean ground-up industry-wide loss if the event occurs, before any
        exposure-specific scaling by the catastrophe model.
    intensity:
        Normalised hazard intensity in [0, inf) used by the vulnerability
        module to derive site-level damage ratios.
    region:
        Integer id of the geographic region the event primarily affects.
    """

    event_id: int
    peril: Peril
    annual_rate: float
    mean_severity: float
    intensity: float
    region: int = 0

    def __post_init__(self) -> None:
        if self.event_id < 0:
            raise ValueError(f"event_id must be non-negative, got {self.event_id}")
        ensure_positive(self.annual_rate, "annual_rate")
        ensure_non_negative(self.mean_severity, "mean_severity")
        ensure_non_negative(self.intensity, "intensity")
        if self.region < 0:
            raise ValueError(f"region must be non-negative, got {self.region}")


class EventCatalog:
    """Column-wise container of stochastic events.

    Parameters
    ----------
    perils:
        Integer-coded peril per event (codes index :attr:`peril_order`).
    annual_rates:
        Per-event Poisson occurrence rates (events / year).
    mean_severities:
        Per-event mean ground-up severities.
    intensities:
        Per-event normalised hazard intensities.
    regions:
        Per-event geographic region ids.
    peril_order:
        The tuple of :class:`Peril` members that the integer codes refer to.
    """

    def __init__(
        self,
        perils: np.ndarray,
        annual_rates: np.ndarray,
        mean_severities: np.ndarray,
        intensities: np.ndarray,
        regions: np.ndarray | None = None,
        peril_order: Sequence[Peril] = tuple(Peril),
    ) -> None:
        self.peril_codes = np.ascontiguousarray(perils, dtype=np.int16)
        self.annual_rates = np.ascontiguousarray(annual_rates, dtype=np.float64)
        self.mean_severities = np.ascontiguousarray(mean_severities, dtype=np.float64)
        self.intensities = np.ascontiguousarray(intensities, dtype=np.float64)
        n = self.peril_codes.shape[0]
        if regions is None:
            regions = np.zeros(n, dtype=np.int32)
        self.regions = np.ascontiguousarray(regions, dtype=np.int32)
        self.peril_order: tuple[Peril, ...] = tuple(peril_order)

        for name, arr in (
            ("annual_rates", self.annual_rates),
            ("mean_severities", self.mean_severities),
            ("intensities", self.intensities),
            ("regions", self.regions),
        ):
            if arr.shape[0] != n:
                raise ValueError(
                    f"{name} has length {arr.shape[0]}, expected {n} (length of perils)"
                )
        if n and (self.peril_codes.min() < 0 or self.peril_codes.max() >= len(self.peril_order)):
            raise ValueError("peril codes out of range of peril_order")
        if np.any(self.annual_rates <= 0):
            raise ValueError("all annual_rates must be strictly positive")
        if np.any(self.mean_severities < 0):
            raise ValueError("mean_severities must be non-negative")

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of events in the catalog."""
        return int(self.peril_codes.shape[0])

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, event_id: int) -> Event:
        if not 0 <= event_id < self.size:
            raise IndexError(f"event_id {event_id} out of range [0, {self.size})")
        return Event(
            event_id=int(event_id),
            peril=self.peril_order[int(self.peril_codes[event_id])],
            annual_rate=float(self.annual_rates[event_id]),
            mean_severity=float(self.mean_severities[event_id]),
            intensity=float(self.intensities[event_id]),
            region=int(self.regions[event_id]),
        )

    def __iter__(self) -> Iterator[Event]:
        for event_id in range(self.size):
            yield self[event_id]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventCatalog(size={self.size}, perils={len(self.peril_order)})"

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def total_annual_rate(self) -> float:
        """Expected number of event occurrences per contractual year."""
        return float(self.annual_rates.sum())

    def occurrence_probabilities(self) -> np.ndarray:
        """Per-event probability of being the one that occurs, given one occurrence.

        Used by the YET simulator to draw event identities conditionally on the
        Poisson-sampled number of occurrences in a trial.
        """
        total = self.total_annual_rate
        if total <= 0:
            raise ValueError("catalog has zero total annual rate")
        return self.annual_rates / total

    def peril_summary(self) -> Dict[Peril, Dict[str, float]]:
        """Per-peril counts, total rates and mean severities (for reporting)."""
        summary: Dict[Peril, Dict[str, float]] = {}
        for code, peril in enumerate(self.peril_order):
            mask = self.peril_codes == code
            count = int(mask.sum())
            if count == 0:
                continue
            summary[peril] = {
                "count": float(count),
                "total_annual_rate": float(self.annual_rates[mask].sum()),
                "mean_severity": float(self.mean_severities[mask].mean()),
            }
        return summary

    def subset(self, event_ids: np.ndarray) -> "EventCatalog":
        """Return a new catalog containing only ``event_ids`` (re-indexed densely)."""
        idx = np.asarray(event_ids, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise IndexError("event_ids out of range")
        return EventCatalog(
            self.peril_codes[idx],
            self.annual_rates[idx],
            self.mean_severities[idx],
            self.intensities[idx],
            self.regions[idx],
            self.peril_order,
        )
