"""Tests for repro.hazard.intensity."""

import numpy as np
import pytest

from repro.catalog.generator import CatalogGenerator
from repro.hazard.intensity import RegionalFootprintModel


@pytest.fixture(scope="module")
def catalog():
    return CatalogGenerator(n_regions=6).generate(400, rng=11)


class TestRegionalFootprintModel:
    def test_matrix_shape(self, catalog):
        model = RegionalFootprintModel()
        matrix = model.intensity_matrix(catalog, n_regions=6)
        assert matrix.shape == (catalog.size, 6)

    def test_primary_region_has_full_intensity(self, catalog):
        model = RegionalFootprintModel(spill_fraction=0.3)
        matrix = model.intensity_matrix(catalog, n_regions=6)
        rows = np.arange(catalog.size)
        primary = matrix[rows, np.clip(catalog.regions, 0, 5)]
        expected = np.maximum(catalog.intensities, model.intensity_floor)
        np.testing.assert_allclose(primary, expected)

    def test_spill_attenuated(self, catalog):
        model = RegionalFootprintModel(spill_fraction=0.25)
        matrix = model.intensity_matrix(catalog, n_regions=6)
        # Pick an event whose region has both neighbours inside the grid.
        interior = np.nonzero((catalog.regions > 0) & (catalog.regions < 5))[0][0]
        region = int(catalog.regions[interior])
        primary = matrix[interior, region]
        left = matrix[interior, region - 1]
        assert left == pytest.approx(0.25 * primary)

    def test_no_spill_when_fraction_zero(self, catalog):
        model = RegionalFootprintModel(spill_fraction=0.0)
        matrix = model.intensity_matrix(catalog, n_regions=6)
        assert (np.count_nonzero(matrix, axis=1) == 1).all()

    def test_affected_regions_listing(self, catalog):
        model = RegionalFootprintModel(spill_fraction=0.5)
        affected = np.count_nonzero(model.intensity_matrix(catalog, n_regions=6) > 0.0, axis=1)
        assert len(affected) == catalog.size
        assert ((1 <= affected) & (affected <= 3)).all()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RegionalFootprintModel(spill_fraction=1.5)
        with pytest.raises(ValueError):
            RegionalFootprintModel().intensity_matrix(
                CatalogGenerator(n_regions=2).generate(10, rng=1), n_regions=0
            )
