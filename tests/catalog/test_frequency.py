"""Tests for repro.catalog.frequency."""

import numpy as np
import pytest

from repro.catalog.frequency import PoissonFrequency


class TestPoissonFrequency:
    def test_moments(self):
        model = PoissonFrequency(rate=5.0)
        assert model.mean == 5.0

    def test_sample_mean_close_to_rate(self):
        model = PoissonFrequency(rate=20.0)
        counts = model.sample_counts(20_000, rng=1)
        assert counts.mean() == pytest.approx(20.0, rel=0.05)

    def test_deterministic_with_seed(self):
        model = PoissonFrequency(rate=3.0)
        np.testing.assert_array_equal(model.sample_counts(10, rng=7), model.sample_counts(10, rng=7))

    def test_counts_non_negative_integers(self):
        counts = PoissonFrequency(2.0).sample_counts(100, rng=2)
        assert counts.dtype == np.int64
        assert (counts >= 0).all()

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PoissonFrequency(0.0)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            PoissonFrequency(1.0).sample_counts(-1)


class TestClippedCounts:
    def test_clipping_bounds_respected(self):
        model = PoissonFrequency(rate=10.0)
        counts = model.clipped_counts(1000, rng=4, min_events=8, max_events=12)
        assert counts.min() >= 8
        assert counts.max() <= 12

    def test_no_max_allows_large_counts(self):
        model = PoissonFrequency(rate=100.0)
        counts = model.clipped_counts(100, rng=5, min_events=0, max_events=None)
        assert counts.max() > 12

    def test_invalid_bounds(self):
        model = PoissonFrequency(1.0)
        with pytest.raises(ValueError):
            model.clipped_counts(10, min_events=-1)
        with pytest.raises(ValueError):
            model.clipped_counts(10, min_events=5, max_events=2)
