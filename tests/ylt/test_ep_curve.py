"""Tests for repro.ylt.ep_curve."""

import numpy as np
import pytest

from repro.ylt.ep_curve import EPCurve, aep_curve, oep_curve


class TestEPCurveConstruction:
    def test_valid_curve(self):
        curve = EPCurve(np.array([1.0, 2.0, 3.0]), np.array([0.9, 0.5, 0.1]))
        assert curve.n_points == 3

    def test_losses_must_be_sorted(self):
        with pytest.raises(ValueError):
            EPCurve(np.array([3.0, 1.0]), np.array([0.5, 0.4]))

    def test_probabilities_must_decrease(self):
        with pytest.raises(ValueError):
            EPCurve(np.array([1.0, 2.0]), np.array([0.1, 0.5]))

    def test_probabilities_in_unit_interval(self):
        with pytest.raises(ValueError):
            EPCurve(np.array([1.0]), np.array([1.5]))


class TestEmpiricalCurves:
    def test_aep_probabilities_monotone(self):
        rng = np.random.default_rng(1)
        curve = aep_curve(rng.gamma(2.0, 100.0, size=500))
        assert (np.diff(curve.exceedance_probabilities) <= 1e-12).all()
        assert (np.diff(curve.losses) >= 0).all()

    def test_known_quantile(self):
        # 1000 years of losses 1..1000: the 100-year PML (exceedance
        # probability 0.01) sits at ~990.
        losses = np.arange(1.0, 1001.0)
        curve = aep_curve(losses)
        assert curve.loss_at_return_period(100.0) == pytest.approx(990.0, rel=0.01)

    def test_exceedance_probability_interpolation(self):
        losses = np.arange(1.0, 101.0)
        curve = aep_curve(losses)
        assert curve.exceedance_probability(50.0) == pytest.approx(0.5, abs=0.02)

    def test_return_period_inverse_of_probability(self):
        losses = np.arange(1.0, 101.0)
        curve = aep_curve(losses)
        loss = curve.loss_at_return_period(20.0)
        assert curve.return_period(loss) == pytest.approx(20.0, rel=0.1)

    def test_return_period_inf_when_never_exceeded(self):
        curve = EPCurve(np.array([10.0, 20.0]), np.array([0.5, 0.0]))
        assert curve.return_period(25.0) == np.inf

    def test_max_points_reduces_size(self):
        losses = np.arange(1.0, 1001.0)
        curve = aep_curve(losses, max_points=50)
        assert curve.n_points <= 50

    def test_oep_curve_kind(self):
        assert oep_curve(np.array([1.0, 2.0, 3.0])).kind == "OEP"

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aep_curve(np.array([]))

    def test_negative_losses_rejected(self):
        with pytest.raises(ValueError):
            aep_curve(np.array([-1.0, 2.0]))

    def test_return_period_clamped_to_endpoints(self):
        losses = np.arange(1.0, 11.0)
        curve = aep_curve(losses)
        assert curve.loss_at_return_period(1.0) == pytest.approx(curve.losses[0])
        assert curve.loss_at_return_period(1e9) == pytest.approx(curve.losses[-1])

    def test_invalid_return_period(self):
        curve = aep_curve(np.arange(1.0, 11.0))
        with pytest.raises(ValueError):
            curve.loss_at_return_period(0.0)
