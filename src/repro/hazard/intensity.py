"""Hazard intensity footprints.

A *footprint* describes where an event's hazard is felt and how strongly.  The
full physical footprint of a real catastrophe model (a wind field, a ground
motion field, a flood depth raster) is replaced here by a regional footprint:
each event affects its primary region at full intensity and neighbouring
regions at an attenuated intensity.  This preserves the two structural
properties the aggregate analysis cares about:

* only a subset of catalog events produces loss for a given exposure set
  (ELT sparsity), and
* exposure sets in the same region share events (loss correlation between
  ELTs of a layer).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.catalog.events import EventCatalog
from repro.utils.validation import ensure_in_range

__all__ = ["FootprintModel", "RegionalFootprintModel"]


class FootprintModel(abc.ABC):
    """Abstract mapping from (event, region) to site hazard intensity."""

    @abc.abstractmethod
    def intensity_matrix(self, catalog: EventCatalog, n_regions: int) -> np.ndarray:
        """Return an ``(n_events, n_regions)`` matrix of site intensities.

        Entry ``(e, r)`` is the hazard intensity event ``e`` produces at sites
        in region ``r`` (0 when the event does not affect the region).
        """


class RegionalFootprintModel(FootprintModel):
    """Footprints defined on the coarse region grid.

    Parameters
    ----------
    spill_fraction:
        Intensity attenuation factor for the two neighbouring regions
        (region id +/- 1); 0 confines every event to its primary region.
    intensity_floor:
        Minimum intensity assigned to an affected region (keeps damage ratios
        away from exactly zero for affected exposures).
    """

    def __init__(self, spill_fraction: float = 0.3, intensity_floor: float = 0.02) -> None:
        ensure_in_range(spill_fraction, 0.0, 1.0, "spill_fraction")
        ensure_in_range(intensity_floor, 0.0, 1.0, "intensity_floor")
        self.spill_fraction = float(spill_fraction)
        self.intensity_floor = float(intensity_floor)

    def intensity_matrix(self, catalog: EventCatalog, n_regions: int) -> np.ndarray:
        if n_regions <= 0:
            raise ValueError(f"n_regions must be positive, got {n_regions}")
        n_events = catalog.size
        matrix = np.zeros((n_events, n_regions), dtype=np.float64)
        if n_events == 0:
            return matrix
        regions = np.clip(catalog.regions, 0, n_regions - 1)
        base = np.maximum(catalog.intensities, self.intensity_floor)
        rows = np.arange(n_events)
        matrix[rows, regions] = base
        if self.spill_fraction > 0.0 and n_regions > 1:
            left = np.clip(regions - 1, 0, n_regions - 1)
            right = np.clip(regions + 1, 0, n_regions - 1)
            spill = self.spill_fraction * base
            # Use np.maximum.at so events whose neighbours coincide with the
            # primary region (at the grid edge) do not overwrite the full
            # intensity with the attenuated one.
            np.maximum.at(matrix, (rows, left), spill)
            np.maximum.at(matrix, (rows, right), spill)
            matrix[rows, regions] = base
        return matrix
