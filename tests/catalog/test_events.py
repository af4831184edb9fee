"""Tests for repro.catalog.events."""

import numpy as np
import pytest

from repro.catalog.events import Event, EventCatalog
from repro.catalog.peril import Peril


def build_catalog(n: int = 10) -> EventCatalog:
    """Event ``i``: hurricane when even, flood when odd; rate 0.1 (i + 1)."""
    ids = np.arange(n)
    peril_order = tuple(Peril)
    return EventCatalog(
        perils=np.where(ids % 2 == 0, peril_order.index(Peril.HURRICANE),
                        peril_order.index(Peril.FLOOD)).astype(np.int16),
        annual_rates=0.1 * (ids + 1),
        mean_severities=1e6 * (ids + 1.0),
        intensities=0.1 * ids,
        regions=(ids % 3).astype(np.int32),
        peril_order=peril_order,
    )


class TestEvent:
    def test_valid_event(self):
        event = Event(0, Peril.FLOOD, 0.5, 1e6, 0.3, region=2)
        assert event.region == 2

    @pytest.mark.parametrize("kwargs", [
        dict(event_id=-1, peril=Peril.FLOOD, annual_rate=0.5, mean_severity=1e6, intensity=0.3),
        dict(event_id=0, peril=Peril.FLOOD, annual_rate=0.0, mean_severity=1e6, intensity=0.3),
        dict(event_id=0, peril=Peril.FLOOD, annual_rate=0.5, mean_severity=-1.0, intensity=0.3),
        dict(event_id=0, peril=Peril.FLOOD, annual_rate=0.5, mean_severity=1e6, intensity=-0.1),
        dict(event_id=0, peril=Peril.FLOOD, annual_rate=0.5, mean_severity=1e6, intensity=0.3, region=-1),
    ])
    def test_invalid_event_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Event(**kwargs)


class TestEventCatalog:
    def test_size_and_roundtrip(self):
        catalog = build_catalog(10)
        assert catalog.size == len(catalog) == 10
        event = catalog[3]
        assert event.event_id == 3
        assert event.peril is Peril.FLOOD
        assert event.annual_rate == pytest.approx(0.4)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            _ = build_catalog(5)[5]

    def test_iteration_yields_all_events(self):
        catalog = build_catalog(6)
        assert [e.event_id for e in catalog] == list(range(6))

    def test_total_annual_rate(self):
        catalog = build_catalog(4)
        assert catalog.total_annual_rate == pytest.approx(0.1 + 0.2 + 0.3 + 0.4)

    def test_occurrence_probabilities_sum_to_one(self):
        catalog = build_catalog(10)
        assert catalog.occurrence_probabilities().sum() == pytest.approx(1.0)

    def test_peril_summary_counts(self):
        summary = build_catalog(10).peril_summary()
        assert summary[Peril.HURRICANE]["count"] == 5
        assert summary[Peril.FLOOD]["count"] == 5

    def test_subset_reindexes(self):
        catalog = build_catalog(10)
        subset = catalog.subset(np.array([2, 5, 7]))
        assert subset.size == 3
        assert subset[0].annual_rate == pytest.approx(0.3)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            EventCatalog(
                perils=np.zeros(3, dtype=np.int16),
                annual_rates=np.ones(2),
                mean_severities=np.ones(3),
                intensities=np.ones(3),
            )

    def test_peril_codes_outside_the_peril_order_rejected(self):
        with pytest.raises(ValueError, match="peril codes"):
            EventCatalog(
                perils=np.array([0, 2], dtype=np.int16),
                annual_rates=np.ones(2),
                mean_severities=np.ones(2),
                intensities=np.ones(2),
                peril_order=(Peril.FLOOD, Peril.HURRICANE),
            )

    def test_negative_severities_rejected(self):
        with pytest.raises(ValueError, match="mean_severities"):
            EventCatalog(
                perils=np.zeros(2, dtype=np.int16),
                annual_rates=np.ones(2),
                mean_severities=np.array([1.0, -1.0]),
                intensities=np.ones(2),
            )

    def test_empty_catalog_has_no_occurrence_probabilities(self):
        empty = EventCatalog(
            perils=np.zeros(0, dtype=np.int16),
            annual_rates=np.zeros(0),
            mean_severities=np.zeros(0),
            intensities=np.zeros(0),
        )
        with pytest.raises(ValueError, match="zero total annual rate"):
            empty.occurrence_probabilities()

    def test_non_positive_rates_rejected(self):
        with pytest.raises(ValueError):
            EventCatalog(
                perils=np.zeros(2, dtype=np.int16),
                annual_rates=np.array([1.0, 0.0]),
                mean_severities=np.ones(2),
                intensities=np.ones(2),
            )
