"""Exposure portfolio container.

An :class:`ExposurePortfolio` is one *exposure set*: the collection of insured
buildings whose losses a single Event Loss Table summarises.  A reinsurer's
cedants each contribute one (or several) such exposure sets; the paper's
aggregate analysis covers ~10,000 ELTs, i.e. ~10,000 exposure sets.

The portfolio keeps both row-wise :class:`~repro.exposure.building.Building`
records (for inspection and small-scale use) and column-wise NumPy arrays
(for the vectorised catastrophe model).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from repro.exposure.building import Building, ConstructionClass, OccupancyType

__all__ = ["ExposurePortfolio"]


class ExposurePortfolio:
    """A named collection of insured buildings (one exposure set)."""

    def __init__(self, name: str, buildings: Sequence[Building]) -> None:
        if not name:
            raise ValueError("portfolio name must be non-empty")
        self.name = str(name)
        self._buildings: List[Building] = list(buildings)
        ids = [b.building_id for b in self._buildings]
        if len(set(ids)) != len(ids):
            raise ValueError("building ids must be unique within a portfolio")

        n = len(self._buildings)
        self.replacement_values = np.array(
            [b.replacement_value for b in self._buildings], dtype=np.float64
        )
        self.regions = np.array([b.region for b in self._buildings], dtype=np.int32)
        construction_order = tuple(ConstructionClass)
        occupancy_order = tuple(OccupancyType)
        self.construction_order = construction_order
        self.occupancy_order = occupancy_order
        self.construction_codes = np.array(
            [construction_order.index(b.construction) for b in self._buildings],
            dtype=np.int16,
        )
        self.occupancy_codes = np.array(
            [occupancy_order.index(b.occupancy) for b in self._buildings], dtype=np.int16
        )
        self.deductibles = np.array(
            [b.coverage.deductible for b in self._buildings], dtype=np.float64
        )
        self.limits = np.array([b.coverage.limit for b in self._buildings], dtype=np.float64)
        self.participations = np.array(
            [b.coverage.participation for b in self._buildings], dtype=np.float64
        )
        self.latitudes = np.array([b.latitude for b in self._buildings], dtype=np.float64)
        self.longitudes = np.array([b.longitude for b in self._buildings], dtype=np.float64)
        assert self.replacement_values.shape[0] == n

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of buildings in the portfolio."""
        return len(self._buildings)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Building]:
        return iter(self._buildings)

    def __getitem__(self, index: int) -> Building:
        return self._buildings[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExposurePortfolio(name={self.name!r}, size={self.size}, "
            f"tiv={self.total_insured_value:.3e})"
        )

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def total_insured_value(self) -> float:
        """Sum of replacement values (TIV) across the portfolio."""
        return float(self.replacement_values.sum())
