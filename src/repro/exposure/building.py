"""Building-level exposure records.

Each insured building (or "risk") is described by its construction class,
occupancy, location, replacement value and site-level coverage terms.  The
vulnerability module maps hazard intensity to a damage ratio as a function of
the construction class; the coverage terms cap the recoverable site loss.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.utils.validation import ensure_in_range, ensure_non_negative, ensure_positive

__all__ = ["ConstructionClass", "OccupancyType", "CoverageTerms", "Building"]


class ConstructionClass(enum.Enum):
    """Coarse construction classes with distinct vulnerability behaviour."""

    WOOD_FRAME = "wood_frame"
    MASONRY = "masonry"
    REINFORCED_CONCRETE = "reinforced_concrete"
    STEEL_FRAME = "steel_frame"
    LIGHT_METAL = "light_metal"
    MOBILE_HOME = "mobile_home"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class OccupancyType(enum.Enum):
    """Occupancy / use of the building (affects contents and time-element loss)."""

    RESIDENTIAL = "residential"
    COMMERCIAL = "commercial"
    INDUSTRIAL = "industrial"
    AGRICULTURAL = "agricultural"
    PUBLIC = "public"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class CoverageTerms:
    """Site-level (primary-insurance) coverage terms.

    Attributes
    ----------
    deductible:
        Amount of loss retained by the policyholder per occurrence.
    limit:
        Maximum amount payable per occurrence (``inf`` = unlimited).
    participation:
        Insurer's share of the loss between deductible and limit (co-insurance).
    """

    deductible: float = 0.0
    limit: float = float("inf")
    participation: float = 1.0

    def __post_init__(self) -> None:
        ensure_non_negative(self.deductible, "deductible")
        ensure_non_negative(self.limit, "limit", allow_inf=True)
        ensure_in_range(self.participation, 0.0, 1.0, "participation")

    def apply(self, ground_up_loss: float) -> float:
        """Recoverable loss for a single ground-up occurrence loss."""
        loss = ensure_non_negative(ground_up_loss, "ground_up_loss")
        covered = min(max(loss - self.deductible, 0.0), self.limit)
        return covered * self.participation


@dataclass(frozen=True)
class Building:
    """One insured building (risk) in an exposure set.

    Attributes
    ----------
    building_id:
        Identifier unique within its exposure portfolio.
    latitude, longitude:
        Site coordinates in decimal degrees.
    region:
        Geographic region id (matches the catalog's region coding).
    construction:
        Construction class used by the vulnerability curves.
    occupancy:
        Occupancy / use type.
    replacement_value:
        Total insured value (building + contents) in currency units.
    coverage:
        Site-level coverage terms.
    """

    building_id: int
    latitude: float
    longitude: float
    region: int
    construction: ConstructionClass
    occupancy: OccupancyType
    replacement_value: float
    coverage: CoverageTerms = CoverageTerms()

    def __post_init__(self) -> None:
        if self.building_id < 0:
            raise ValueError(f"building_id must be non-negative, got {self.building_id}")
        ensure_in_range(self.latitude, -90.0, 90.0, "latitude")
        ensure_in_range(self.longitude, -180.0, 180.0, "longitude")
        if self.region < 0:
            raise ValueError(f"region must be non-negative, got {self.region}")
        ensure_positive(self.replacement_value, "replacement_value")
