"""Tests for repro.portfolio.rollup."""

import numpy as np
import pytest

from repro.elt.table import EventLossTable
from repro.financial.terms import LayerTerms
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.portfolio.rollup import portfolio_rollup
from repro.ylt.table import YearLossTable


def make_ylt(n_trials: int = 2000, n_layers: int = 3, seed: int = 1) -> YearLossTable:
    rng = np.random.default_rng(seed)
    losses = rng.gamma(2.0, 1e5, size=(n_layers, n_trials))
    names = [f"layer-{i}" for i in range(n_layers)]
    return YearLossTable(losses, names)


def make_program(n_layers: int = 3) -> ReinsuranceProgram:
    layers = []
    for i in range(n_layers):
        elt = EventLossTable(np.array([i]), np.array([10.0]), catalog_size=10)
        terms = LayerTerms(occurrence_retention=1.0, occurrence_limit=5.0) if i % 2 == 0 \
            else LayerTerms(aggregate_retention=1.0, aggregate_limit=5.0)
        layers.append(Layer([elt], terms, name=f"layer-{i}"))
    return ReinsuranceProgram(layers)


class TestPortfolioRollup:
    def test_portfolio_aal_is_sum_of_layer_aals(self):
        ylt = make_ylt()
        result = portfolio_rollup(ylt)
        layer_aal_sum = sum(m.aal for m in result.layer_metrics.values())
        assert result.portfolio_metrics.aal == pytest.approx(layer_aal_sum, rel=1e-9)

    def test_diversification_benefit_positive_for_independent_layers(self):
        result = portfolio_rollup(make_ylt())
        assert 0.0 < result.diversification_benefit < 1.0

    def test_no_diversification_for_single_layer(self):
        ylt = YearLossTable(np.random.default_rng(2).gamma(2.0, 1e5, size=(1, 1000)))
        result = portfolio_rollup(ylt)
        assert result.diversification_benefit == pytest.approx(0.0, abs=1e-9)

    def test_layer_metrics_keyed_by_name(self):
        result = portfolio_rollup(make_ylt())
        assert set(result.layer_metrics) == {"layer-0", "layer-1", "layer-2"}

    def test_group_metrics_by_contract_kind(self):
        ylt = make_ylt()
        program = make_program()
        result = portfolio_rollup(ylt, program)
        assert set(result.group_metrics) == {"per-occurrence XL", "aggregate XL"}

    def test_group_metrics_empty_without_program(self):
        assert portfolio_rollup(make_ylt()).group_metrics == {}

    def test_reference_return_period_included(self):
        result = portfolio_rollup(make_ylt(), reference_return_period=200.0)
        assert 200.0 in result.portfolio_metrics.pml
        assert result.reference_return_period == 200.0

    def test_invalid_return_period(self):
        with pytest.raises(ValueError):
            portfolio_rollup(make_ylt(), reference_return_period=0.5)
