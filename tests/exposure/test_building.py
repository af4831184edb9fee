"""Tests for repro.exposure.building."""

import pytest

from repro.exposure.building import Building, ConstructionClass, CoverageTerms, OccupancyType


class TestCoverageTerms:
    def test_defaults_are_passthrough(self):
        assert CoverageTerms().apply(1000.0) == pytest.approx(1000.0)

    def test_deductible_subtracted(self):
        terms = CoverageTerms(deductible=100.0)
        assert terms.apply(250.0) == pytest.approx(150.0)
        assert terms.apply(50.0) == 0.0

    def test_limit_caps_recovery(self):
        terms = CoverageTerms(deductible=0.0, limit=500.0)
        assert terms.apply(800.0) == pytest.approx(500.0)

    def test_participation_scales(self):
        terms = CoverageTerms(participation=0.5)
        assert terms.apply(1000.0) == pytest.approx(500.0)

    def test_combined_terms(self):
        terms = CoverageTerms(deductible=100.0, limit=400.0, participation=0.8)
        # min(max(1000 - 100, 0), 400) * 0.8 = 320
        assert terms.apply(1000.0) == pytest.approx(320.0)

    @pytest.mark.parametrize("kwargs", [
        dict(deductible=-1.0),
        dict(limit=-5.0),
        dict(participation=1.5),
    ])
    def test_invalid_terms(self, kwargs):
        with pytest.raises(ValueError):
            CoverageTerms(**kwargs)

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            CoverageTerms().apply(-1.0)


def make_building(**overrides):
    kwargs = dict(
        building_id=1,
        latitude=45.0,
        longitude=-60.0,
        region=2,
        construction=ConstructionClass.WOOD_FRAME,
        occupancy=OccupancyType.RESIDENTIAL,
        replacement_value=500_000.0,
    )
    kwargs.update(overrides)
    return Building(**kwargs)


class TestBuilding:
    def test_valid_building(self):
        building = make_building()
        assert building.replacement_value == 500_000.0

    @pytest.mark.parametrize("overrides", [
        dict(building_id=-1),
        dict(latitude=95.0),
        dict(longitude=200.0),
        dict(region=-1),
        dict(replacement_value=0.0),
    ])
    def test_invalid_building(self, overrides):
        with pytest.raises(ValueError):
            make_building(**overrides)
