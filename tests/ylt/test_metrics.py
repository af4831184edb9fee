"""Tests for repro.ylt.metrics (PML, TVaR, AAL)."""

import numpy as np
import pytest

from repro.ylt import metrics as metrics_module
from repro.ylt.metrics import (
    aal,
    compute_risk_metrics,
    compute_risk_metrics_batch,
    layer_metrics,
    pml,
    portfolio_ep_curve,
    tvar,
    value_at_risk,
)
from repro.ylt.table import YearLossTable


class TestScalarMetrics:
    def test_aal_is_mean(self):
        assert aal(np.array([0.0, 10.0, 20.0])) == pytest.approx(10.0)

    def test_aal_empty_rejected(self):
        with pytest.raises(ValueError):
            aal(np.array([]))

    def test_value_at_risk_quantile(self):
        losses = np.arange(101.0)
        assert value_at_risk(losses, 0.95) == pytest.approx(95.0)

    def test_pml_return_period_quantile(self):
        losses = np.arange(1.0, 1001.0)
        # 250-year PML = 1 - 1/250 quantile.
        assert pml(losses, 250.0) == pytest.approx(np.quantile(losses, 1 - 1 / 250))

    def test_pml_monotone_in_return_period(self):
        rng = np.random.default_rng(2)
        losses = rng.gamma(2.0, 1000.0, size=5000)
        assert pml(losses, 250.0) >= pml(losses, 100.0) >= pml(losses, 10.0)

    def test_pml_requires_at_least_one_year(self):
        with pytest.raises(ValueError):
            pml(np.array([1.0]), 0.5)

    def test_tvar_exceeds_var(self):
        rng = np.random.default_rng(3)
        losses = rng.gamma(2.0, 1000.0, size=5000)
        assert tvar(losses, 0.99) >= value_at_risk(losses, 0.99)

    def test_tvar_known_distribution(self):
        # Uniform losses 1..100: TVaR(0.9) = mean of top 10% ~ 95.5.
        losses = np.arange(1.0, 101.0)
        assert tvar(losses, 0.90) == pytest.approx(95.0, abs=1.0)

    def test_tvar_level_validated(self):
        with pytest.raises(ValueError):
            tvar(np.array([1.0, 2.0]), 1.5)


class TestComputeRiskMetrics:
    def test_contains_requested_levels(self):
        rng = np.random.default_rng(4)
        losses = rng.gamma(2.0, 1000.0, size=2000)
        metrics = compute_risk_metrics(losses, return_periods=(10.0, 100.0), tvar_levels=(0.95,))
        assert set(metrics.pml) == {10.0, 100.0}
        assert set(metrics.tvar) == {0.95}
        assert metrics.n_trials == 2000

    def test_max_loss_and_std(self):
        losses = np.array([1.0, 2.0, 3.0, 10.0])
        metrics = compute_risk_metrics(losses)
        assert metrics.max_loss == 10.0
        assert metrics.std == pytest.approx(np.std(losses, ddof=1))

    def test_accessors(self):
        losses = np.arange(1.0, 101.0)
        metrics = compute_risk_metrics(losses, return_periods=(50.0,), tvar_levels=(0.9,))
        assert metrics.pml_at(50.0) == metrics.pml[50.0]
        assert metrics.tvar_at(0.9) == metrics.tvar[0.9]

    def test_single_trial_std_zero(self):
        metrics = compute_risk_metrics(np.array([5.0]))
        assert metrics.std == 0.0


class TestBatchKernelEdges:
    LOSSES = np.random.default_rng(5).gamma(0.5, 1.0e6, size=(6, 400))

    def test_no_rows_gives_no_metrics(self):
        assert compute_risk_metrics_batch(np.empty((0, 10))) == ()

    def test_zero_trials_rejected_like_the_scalar_path(self):
        with pytest.raises(ValueError, match="cannot compute metrics of zero trials"):
            compute_risk_metrics_batch(np.empty((3, 0)))
        with pytest.raises(ValueError, match="cannot compute metrics of zero trials"):
            compute_risk_metrics(np.empty(0))

    def test_matrix_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="2-D"):
            compute_risk_metrics_batch(np.arange(5.0))

    @pytest.mark.parametrize("kwargs, message", [
        ({"return_periods": (100.0, 0.5)}, "return period must be at least 1 year"),
        ({"return_periods": (0.0,)}, "return_period_years must be positive"),
        ({"tvar_levels": (0.99, 1.5)}, r"probability must be in \[0, 1\]"),
        ({"tvar_levels": (-0.1,)}, r"probability must be in \[0, 1\]"),
    ])
    def test_levels_validated_once_up_front(self, quantile_calls, kwargs, message):
        # Rejected before any row is touched — even when there are no rows.
        for losses in (self.LOSSES, np.empty((0, 10))):
            with pytest.raises(ValueError, match=message):
                compute_risk_metrics_batch(losses, **kwargs)
        assert quantile_calls == []

    def test_one_quantile_call_for_all_rows_and_levels(self, quantile_calls):
        batch = compute_risk_metrics_batch(self.LOSSES)
        assert quantile_calls == [1]
        assert len(batch) == 6
        assert all(set(m.pml) == set(metrics_module.DEFAULT_RETURN_PERIODS) for m in batch)
        assert all(set(m.tvar) == set(metrics_module.DEFAULT_TVAR_LEVELS) for m in batch)

    def test_rows_larger_than_the_block_bound_go_one_at_a_time(self, monkeypatch, quantile_calls):
        whole = compute_risk_metrics_batch(self.LOSSES)
        monkeypatch.setattr(metrics_module, "_BLOCK_BYTES", 1)
        assert compute_risk_metrics_batch(self.LOSSES) == whole
        assert quantile_calls == [1] * 7

    def test_no_levels_requested(self):
        (only,) = compute_risk_metrics_batch(self.LOSSES[:1], return_periods=(), tvar_levels=())
        assert only.pml == {} and only.tvar == {}
        assert only.aal == aal(self.LOSSES[0])

    def test_two_trials_and_one_trial(self):
        two, = compute_risk_metrics_batch(np.array([[4.0, 1.0]]))
        assert two.std == float(np.array([4.0, 1.0]).std(ddof=1))
        assert two.tvar[0.99] == tvar(np.array([4.0, 1.0]), 0.99)
        one, = compute_risk_metrics_batch(np.array([[5.0]]))
        assert (one.std, one.aal, one.max_loss, one.n_trials) == (0.0, 5.0, 5.0, 1)
        assert set(one.pml.values()) == set(one.tvar.values()) == {5.0}

    def test_vector_form_is_the_one_row_case(self):
        row = self.LOSSES[2]
        assert compute_risk_metrics(row) == compute_risk_metrics_batch(row[np.newaxis])[0]


class TestYLTHelpers:
    def test_layer_metrics_per_layer(self):
        ylt = YearLossTable(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), ["a", "b"])
        metrics = layer_metrics(ylt, return_periods=(2.0,), tvar_levels=(0.5,))
        assert set(metrics) == {"a", "b"}
        assert metrics["b"].aal == pytest.approx(5.0)

    def test_layer_metrics_equal_per_row_metrics(self, quantile_calls):
        losses = np.random.default_rng(6).gamma(0.5, 1.0e6, size=(4, 250))
        ylt = YearLossTable(losses, ["a", "b", "c", "d"])
        metrics = layer_metrics(ylt)
        assert quantile_calls == [1]
        for name, row in ylt.iter_layers():
            assert metrics[name] == compute_risk_metrics(row)

    def test_portfolio_ep_curve(self):
        ylt = YearLossTable(np.array([[1.0, 2.0], [3.0, 4.0]]))
        curve = portfolio_ep_curve(ylt)
        assert curve.kind == "AEP"
        assert curve.n_points == 2


class TestMetricsFromBlocks:
    def test_identical_to_monolithic_vector(self):
        from repro.ylt.metrics import compute_risk_metrics_from_blocks

        rng = np.random.default_rng(11)
        losses = rng.uniform(0.0, 1e6, size=200)
        whole = compute_risk_metrics(losses)
        blocked = compute_risk_metrics_from_blocks(
            [losses[:70], losses[70:71], losses[71:]]
        )
        assert blocked == whole

    def test_single_block_shortcut(self):
        from repro.ylt.metrics import compute_risk_metrics_from_blocks

        losses = np.array([1.0, 5.0, 3.0])
        assert compute_risk_metrics_from_blocks([losses]) == compute_risk_metrics(losses)

    def test_no_blocks_rejected(self):
        from repro.ylt.metrics import compute_risk_metrics_from_blocks

        with pytest.raises(ValueError, match="at least one block"):
            compute_risk_metrics_from_blocks([])
