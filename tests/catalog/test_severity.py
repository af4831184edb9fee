"""Tests for repro.catalog.severity."""

import math

import numpy as np
import pytest

from repro.catalog.severity import LognormalSeverity


class TestLognormalSeverity:
    def test_sample_mean_matches(self):
        model = LognormalSeverity(mean_loss=1e6, cv_loss=1.0)
        samples = model.sample(100_000, rng=1)
        assert samples.mean() == pytest.approx(1e6, rel=0.05)

    def test_sample_cv_matches(self):
        model = LognormalSeverity(mean_loss=1e6, cv_loss=0.8)
        samples = model.sample(200_000, rng=2)
        assert samples.std() / samples.mean() == pytest.approx(0.8, rel=0.1)

    def test_samples_positive(self):
        samples = LognormalSeverity(1e5, 2.0).sample(1000, rng=3)
        assert (samples > 0).all()

    def test_log_space_parameters_reproduce_the_moments(self):
        model = LognormalSeverity(mean_loss=2000.0, cv_loss=0.7)
        assert math.exp(model.mu + model.sigma**2 / 2) == pytest.approx(2000.0)
        assert math.sqrt(math.expm1(model.sigma**2)) == pytest.approx(0.7)

    def test_std_property(self):
        model = LognormalSeverity(1000.0, 0.5)
        assert model.std == pytest.approx(500.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LognormalSeverity(0.0, 1.0)
        with pytest.raises(ValueError):
            LognormalSeverity(1.0, 0.0)
