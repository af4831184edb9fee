"""Tests for repro.yet.simulator."""

import numpy as np
import pytest

from repro.catalog.frequency import PoissonFrequency
from repro.catalog.peril import default_peril_profiles
from repro.yet.simulator import YETSimulator


def trial_timestamps_sorted(yet) -> bool:
    """Whether every trial's timestamps are non-decreasing."""
    offsets = yet.trial_offsets
    return all(
        (np.diff(yet.timestamps[start:stop]) >= 0).all()
        for start, stop in zip(offsets[:-1], offsets[1:])
    )


class TestSimulate:
    def test_trial_count(self, small_catalog):
        yet = YETSimulator(small_catalog).simulate(200, rng=1)
        assert yet.n_trials == 200

    def test_mean_events_per_trial_close_to_rate(self, small_catalog):
        yet = YETSimulator(small_catalog).simulate(500, rng=2)
        assert yet.mean_events_per_trial == pytest.approx(small_catalog.total_annual_rate, rel=0.1)

    def test_deterministic_with_seed(self, small_catalog):
        sim = YETSimulator(small_catalog)
        a = sim.simulate(50, rng=3)
        b = sim.simulate(50, rng=3)
        np.testing.assert_array_equal(a.event_ids, b.event_ids)

    def test_event_ids_within_catalog(self, small_catalog):
        yet = YETSimulator(small_catalog).simulate(100, rng=4)
        assert yet.event_ids.min() >= 0
        assert yet.event_ids.max() < small_catalog.size

    def test_timestamps_sorted_within_trials(self, small_catalog):
        yet = YETSimulator(small_catalog, peril_profiles=default_peril_profiles()).simulate(50, rng=5)
        assert trial_timestamps_sorted(yet)

    def test_without_timestamps(self, small_catalog):
        yet = YETSimulator(small_catalog).simulate(20, rng=6, with_timestamps=False)
        assert yet.timestamps is None

    def test_trial_length_bounds_enforced(self, small_catalog):
        sim = YETSimulator(small_catalog, min_events_per_trial=40, max_events_per_trial=60)
        yet = sim.simulate(100, rng=7)
        lengths = yet.events_per_trial
        assert lengths.min() >= 40
        assert lengths.max() <= 60

    def test_custom_frequency_model(self, small_catalog):
        sim = YETSimulator(small_catalog, frequency_model=PoissonFrequency(5.0))
        yet = sim.simulate(400, rng=8)
        assert yet.mean_events_per_trial == pytest.approx(5.0, rel=0.15)

    def test_frequent_events_appear_more_often(self, small_catalog):
        yet = YETSimulator(small_catalog).simulate(400, rng=9)
        counts = np.bincount(yet.event_ids, minlength=small_catalog.size)
        top_rate_event = int(np.argmax(small_catalog.annual_rates))
        low_rate_event = int(np.argmin(small_catalog.annual_rates))
        assert counts[top_rate_event] >= counts[low_rate_event]


class TestSimulateFixedLength:
    def test_exact_trial_length(self, small_catalog):
        yet = YETSimulator(small_catalog).simulate_fixed_length(50, 30, rng=10)
        np.testing.assert_array_equal(yet.events_per_trial, np.full(50, 30))

    def test_with_timestamps_sorted(self, small_catalog):
        yet = YETSimulator(small_catalog).simulate_fixed_length(20, 15, rng=11, with_timestamps=True)
        assert trial_timestamps_sorted(yet)

    def test_invalid_arguments(self, small_catalog):
        sim = YETSimulator(small_catalog)
        with pytest.raises(ValueError):
            sim.simulate(0)
        with pytest.raises(ValueError):
            sim.simulate_fixed_length(10, 0)


class TestConstruction:
    def test_empty_catalog_rejected(self, small_catalog):
        empty = small_catalog.subset(np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            YETSimulator(empty)

    def test_invalid_bounds_rejected(self, small_catalog):
        with pytest.raises(ValueError):
            YETSimulator(small_catalog, min_events_per_trial=-1)
        with pytest.raises(ValueError):
            YETSimulator(small_catalog, min_events_per_trial=10, max_events_per_trial=5)
