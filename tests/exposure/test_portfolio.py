"""Tests for repro.exposure.portfolio."""

import numpy as np
import pytest

from repro.exposure.building import Building, ConstructionClass, CoverageTerms, OccupancyType
from repro.exposure.portfolio import ExposurePortfolio


def build_portfolio(n: int = 10) -> ExposurePortfolio:
    buildings = [
        Building(
            building_id=i,
            latitude=float(i),
            longitude=float(-i),
            region=i % 3,
            construction=list(ConstructionClass)[i % len(ConstructionClass)],
            occupancy=list(OccupancyType)[i % len(OccupancyType)],
            replacement_value=1000.0 * (i + 1),
            coverage=CoverageTerms(participation=1.0),
        )
        for i in range(n)
    ]
    return ExposurePortfolio("test-port", buildings)


class TestExposurePortfolio:
    def test_size_and_iteration(self):
        portfolio = build_portfolio(10)
        assert portfolio.size == len(portfolio) == 10
        assert len(list(portfolio)) == 10

    def test_total_insured_value(self):
        portfolio = build_portfolio(4)
        assert portfolio.total_insured_value == pytest.approx(1000 + 2000 + 3000 + 4000)

    def test_columnar_arrays_match_rows(self):
        portfolio = build_portfolio(5)
        np.testing.assert_allclose(
            portfolio.replacement_values, [1000.0, 2000.0, 3000.0, 4000.0, 5000.0]
        )
        assert portfolio.construction_codes.dtype == np.int16

    def test_duplicate_ids_rejected(self):
        building = Building(0, 0.0, 0.0, 0, ConstructionClass.MASONRY,
                            OccupancyType.COMMERCIAL, 1000.0)
        with pytest.raises(ValueError):
            ExposurePortfolio("dup", [building, building])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ExposurePortfolio("", [])
