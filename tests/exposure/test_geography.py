"""Tests for repro.exposure.geography."""

import pytest

from repro.exposure.geography import Region, RegionGrid


class TestRegion:
    def test_contains(self):
        region = Region(0, 0.0, 10.0, 0.0, 10.0)
        assert region.contains(5.0, 5.0)
        assert not region.contains(15.0, 5.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Region(0, 10.0, 10.0, 0.0, 5.0)

    def test_degenerate_longitude_rejected(self):
        with pytest.raises(ValueError, match="lon_max"):
            Region(0, 0.0, 10.0, 5.0, 5.0)

    def test_negative_region_id_rejected(self):
        with pytest.raises(ValueError, match="region_id"):
            Region(-1, 0.0, 10.0, 0.0, 10.0)


class TestRegionGrid:
    def test_size(self):
        assert RegionGrid(n_lat=2, n_lon=4).size == 8

    def test_region_ids_dense(self):
        grid = RegionGrid(n_lat=2, n_lon=3)
        assert [region.region_id for region in grid] == list(range(6))

    def test_getitem_bounds(self):
        grid = RegionGrid(1, 2)
        with pytest.raises(IndexError):
            _ = grid[2]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RegionGrid(n_lat=0, n_lon=1)
        with pytest.raises(ValueError):
            RegionGrid(lat_range=(10.0, 10.0))
