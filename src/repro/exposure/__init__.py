"""Exposure database substrate.

An *exposure database* "describes thousands or millions of buildings to be
analysed, their construction types, location, value, use, and coverage"
(Section I).  The catastrophe model pairs each catalog event with an exposure
set to produce an Event Loss Table.

This subpackage provides the building/site records, portfolio containers, a
simple geography model (regions on a lat/lon grid) and a synthetic exposure
generator used by the workload presets.
"""

from repro.exposure.building import (
    Building,
    ConstructionClass,
    CoverageTerms,
    OccupancyType,
)
from repro.exposure.generator import ExposureGenerator
from repro.exposure.geography import Region, RegionGrid
from repro.exposure.portfolio import ExposurePortfolio

__all__ = [
    "Building",
    "ConstructionClass",
    "OccupancyType",
    "CoverageTerms",
    "ExposurePortfolio",
    "Region",
    "RegionGrid",
    "ExposureGenerator",
]
