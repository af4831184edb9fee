"""Tests for the three ELT lookup structures (Section III-B of the paper)."""

import numpy as np
import pytest

from benchmarks.paper.lookup_structures import HashedEventLossTable, SortedEventLossTable
from repro.elt.direct_access import DirectAccessTable
from repro.elt.table import EventLossTable

ALL_STRUCTURES = [DirectAccessTable, SortedEventLossTable, HashedEventLossTable]


@pytest.fixture(scope="module")
def sample_elt() -> EventLossTable:
    rng = np.random.default_rng(42)
    catalog_size = 5000
    event_ids = rng.choice(catalog_size, size=400, replace=False)
    losses = rng.gamma(2.0, 1e5, size=400)
    return EventLossTable(event_ids, losses, catalog_size, name="sample")


@pytest.mark.parametrize("structure_cls", ALL_STRUCTURES)
class TestLookupStructureContract:
    def test_catalog_size_preserved(self, structure_cls, sample_elt):
        assert structure_cls(sample_elt).catalog_size == sample_elt.catalog_size

    def test_lookup_known_events(self, structure_cls, sample_elt):
        lookup = structure_cls(sample_elt)
        for event_id, loss in list(sample_elt)[:25]:
            assert lookup.lookup(event_id) == pytest.approx(loss)

    def test_lookup_absent_events_returns_zero(self, structure_cls, sample_elt):
        lookup = structure_cls(sample_elt)
        present = set(int(e) for e in sample_elt.event_ids)
        absent = [i for i in range(sample_elt.catalog_size) if i not in present][:25]
        assert all(lookup.lookup(event_id) == 0.0 for event_id in absent)

    def test_lookup_out_of_range_raises(self, structure_cls, sample_elt):
        lookup = structure_cls(sample_elt)
        with pytest.raises(IndexError):
            lookup.lookup(sample_elt.catalog_size)
        with pytest.raises(IndexError):
            lookup.lookup(-1)

    def test_lookup_many_matches_scalar(self, structure_cls, sample_elt):
        lookup = structure_cls(sample_elt)
        rng = np.random.default_rng(7)
        queries = rng.integers(0, sample_elt.catalog_size, size=500)
        batch = lookup.lookup_many(queries)
        scalar = np.array([lookup.lookup(int(q)) for q in queries])
        np.testing.assert_allclose(batch, scalar)

    def test_lookup_many_empty(self, structure_cls, sample_elt):
        lookup = structure_cls(sample_elt)
        assert lookup.lookup_many(np.array([], dtype=np.int64)).size == 0

    def test_memory_bytes_positive(self, structure_cls, sample_elt):
        assert structure_cls(sample_elt).memory_bytes > 0


class TestStructureSpecificProperties:
    def test_direct_access_memory_proportional_to_catalog(self, sample_elt):
        table = DirectAccessTable(sample_elt)
        assert table.memory_bytes == sample_elt.catalog_size * 8
        assert table.density == pytest.approx(400 / 5000)

    def test_compact_structures_use_less_memory(self, sample_elt):
        direct = DirectAccessTable(sample_elt)
        assert SortedEventLossTable(sample_elt).memory_bytes < direct.memory_bytes
        assert HashedEventLossTable(sample_elt).memory_bytes < direct.memory_bytes

    def test_direct_access_dense_readonly(self, sample_elt):
        table = DirectAccessTable(sample_elt)
        with pytest.raises(ValueError):
            table.dense[0] = 1.0

    def test_hashed_table_slot_count_power_of_two(self, sample_elt):
        table = HashedEventLossTable(sample_elt)
        assert table.n_slots & (table.n_slots - 1) == 0
        assert table.n_slots >= 2 * table.n_records

    def test_hashed_table_load_factor_validation(self, sample_elt):
        with pytest.raises(ValueError):
            HashedEventLossTable(sample_elt, load_factor=1.5)

    def test_empty_elt_supported_by_all(self):
        empty = EventLossTable(np.array([], dtype=np.int64), np.array([]), catalog_size=100)
        for structure_cls in ALL_STRUCTURES:
            lookup = structure_cls(empty)
            assert lookup.lookup(5) == 0.0
            np.testing.assert_allclose(lookup.lookup_many(np.array([1, 2, 3])), 0.0)
