"""Minimal geography model: regions on a latitude/longitude grid.

Both the catalog generator and the exposure generator tag their outputs with
integer region ids.  A region here is a rectangular lat/lon cell of a coarse
global grid; it is deliberately simple — the role of geography in this
reproduction is only to create realistic *overlap structure* between exposure
sets and catalog events (which controls ELT sparsity), not to model physical
hazard propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.utils.validation import ensure_in_range

__all__ = ["Region", "RegionGrid"]


@dataclass(frozen=True)
class Region:
    """A rectangular latitude/longitude cell.

    Attributes
    ----------
    region_id:
        Dense integer id of the region.
    lat_min, lat_max, lon_min, lon_max:
        Bounding box in decimal degrees.
    """

    region_id: int
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self) -> None:
        if self.region_id < 0:
            raise ValueError(f"region_id must be non-negative, got {self.region_id}")
        ensure_in_range(self.lat_min, -90.0, 90.0, "lat_min")
        ensure_in_range(self.lat_max, -90.0, 90.0, "lat_max")
        ensure_in_range(self.lon_min, -180.0, 180.0, "lon_min")
        ensure_in_range(self.lon_max, -180.0, 180.0, "lon_max")
        if self.lat_max <= self.lat_min:
            raise ValueError("lat_max must exceed lat_min")
        if self.lon_max <= self.lon_min:
            raise ValueError("lon_max must exceed lon_min")

    def contains(self, latitude: float, longitude: float) -> bool:
        """Whether the point lies inside the region (inclusive bounds)."""
        return (
            self.lat_min <= latitude <= self.lat_max
            and self.lon_min <= longitude <= self.lon_max
        )


class RegionGrid:
    """A coarse global grid of ``n_lat x n_lon`` rectangular regions."""

    def __init__(self, n_lat: int = 2, n_lon: int = 4,
                 lat_range: Tuple[float, float] = (-60.0, 75.0),
                 lon_range: Tuple[float, float] = (-180.0, 180.0)) -> None:
        if n_lat <= 0 or n_lon <= 0:
            raise ValueError("n_lat and n_lon must be positive")
        lat_lo, lat_hi = lat_range
        lon_lo, lon_hi = lon_range
        if lat_hi <= lat_lo or lon_hi <= lon_lo:
            raise ValueError("ranges must be non-degenerate (hi > lo)")
        self.n_lat = int(n_lat)
        self.n_lon = int(n_lon)
        self._regions: List[Region] = []
        dlat = (lat_hi - lat_lo) / n_lat
        dlon = (lon_hi - lon_lo) / n_lon
        region_id = 0
        for i in range(n_lat):
            for j in range(n_lon):
                self._regions.append(
                    Region(
                        region_id=region_id,
                        lat_min=lat_lo + i * dlat,
                        lat_max=lat_lo + (i + 1) * dlat,
                        lon_min=lon_lo + j * dlon,
                        lon_max=lon_lo + (j + 1) * dlon,
                    )
                )
                region_id += 1

    @property
    def size(self) -> int:
        """Total number of regions in the grid."""
        return len(self._regions)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions)

    def __getitem__(self, region_id: int) -> Region:
        if not 0 <= region_id < self.size:
            raise IndexError(f"region_id {region_id} out of range [0, {self.size})")
        return self._regions[region_id]
