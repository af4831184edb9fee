"""Tests for repro.portfolio.pricing."""

import numpy as np
import pytest

from repro.core.engine import AggregateRiskEngine
from repro.elt.table import EventLossTable
from repro.financial.terms import LayerTerms
from repro.portfolio.layer import Layer
from repro.portfolio.pricing import (
    batch_quote,
    price_layer,
    price_program,
    rate_on_line,
)
from repro.portfolio.program import ReinsuranceProgram


def make_layer(aggregate_limit: float = 1e6) -> Layer:
    elt = EventLossTable(np.array([1, 2]), np.array([100.0, 200.0]), catalog_size=10)
    return Layer([elt], LayerTerms(aggregate_limit=aggregate_limit), name="priced")


class TestRateOnLine:
    def test_basic(self):
        assert rate_on_line(100_000.0, 1_000_000.0) == pytest.approx(0.1)

    def test_infinite_limit_gives_nan(self):
        assert np.isnan(rate_on_line(100.0, np.inf))

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            rate_on_line(1.0, 0.0)


class TestPriceLayer:
    def test_premium_components_consistent(self):
        rng = np.random.default_rng(1)
        year_losses = rng.gamma(2.0, 1e5, size=5000)
        pricing = price_layer(make_layer(), year_losses, volatility_loading=0.3, expense_ratio=0.2)
        assert pricing.expected_loss == pytest.approx(year_losses.mean())
        assert pricing.technical_premium == pytest.approx(
            (pricing.expected_loss + pricing.volatility_load) / 0.8
        )
        assert pricing.expense_load == pytest.approx(
            pricing.technical_premium - pricing.expected_loss - pricing.volatility_load
        )

    def test_premium_exceeds_expected_loss(self):
        year_losses = np.random.default_rng(2).gamma(2.0, 1e5, size=1000)
        pricing = price_layer(make_layer(), year_losses)
        assert pricing.technical_premium > pricing.expected_loss

    def test_zero_volatility_loading(self):
        year_losses = np.full(100, 5000.0)
        pricing = price_layer(make_layer(), year_losses, volatility_loading=0.0, expense_ratio=0.0)
        assert pricing.technical_premium == pytest.approx(5000.0)

    def test_rate_on_line_uses_aggregate_limit(self):
        year_losses = np.full(100, 5000.0)
        pricing = price_layer(make_layer(aggregate_limit=50_000.0), year_losses,
                              volatility_loading=0.0, expense_ratio=0.0)
        assert pricing.rate_on_line == pytest.approx(0.1)

    def test_rate_on_line_falls_back_to_occurrence_limit(self):
        elt = EventLossTable(np.array([1]), np.array([10.0]), catalog_size=5)
        layer = Layer([elt], LayerTerms(occurrence_limit=20_000.0))
        pricing = price_layer(layer, np.full(10, 1000.0), volatility_loading=0.0, expense_ratio=0.0)
        assert pricing.rate_on_line == pytest.approx(0.05)

    def test_invalid_expense_ratio(self):
        with pytest.raises(ValueError):
            price_layer(make_layer(), np.array([1.0, 2.0]), expense_ratio=1.0)

    def test_summary_text(self):
        pricing = price_layer(make_layer(), np.array([1.0, 2.0, 3.0]))
        assert "premium=" in pricing.summary()

    def test_metrics_embedded(self):
        pricing = price_layer(make_layer(), np.arange(1.0, 101.0))
        assert pricing.metrics.n_trials == 100


class TestProgramQuote:
    def test_price_program_matches_per_layer_pricing(self, tiny_workload):
        program = tiny_workload.program
        ylt = AggregateRiskEngine().run(program, tiny_workload.yet).ylt
        quote = price_program(program, ylt)
        assert quote.n_layers == program.n_layers
        assert quote.layer_names == program.layer_names
        for index, layer in enumerate(program.layers):
            solo = price_layer(layer, ylt.layer(index))
            assert quote.layer_pricings[index].technical_premium == pytest.approx(
                solo.technical_premium
            )
        assert quote.total_premium == pytest.approx(
            sum(p.technical_premium for p in quote.layer_pricings)
        )
        assert quote.total_expected_loss == pytest.approx(
            sum(p.expected_loss for p in quote.layer_pricings)
        )

    def test_price_program_rejects_shape_mismatch(self, tiny_workload):
        program = tiny_workload.program
        ylt = AggregateRiskEngine().run(program, tiny_workload.yet).ylt
        with pytest.raises(ValueError, match="layers"):
            price_program(program.subset([0]), ylt)

    def test_layer_lookup_by_name_and_index(self, tiny_workload):
        program = tiny_workload.program
        ylt = AggregateRiskEngine().run(program, tiny_workload.yet).ylt
        quote = price_program(program, ylt)
        name = program.layer_names[0]
        assert quote.layer(name) is quote.layer(0)
        with pytest.raises(KeyError):
            quote.layer("no-such-layer")

    def test_summary_text(self, tiny_workload):
        program = tiny_workload.program
        ylt = AggregateRiskEngine().run(program, tiny_workload.yet).ylt
        quote = price_program(program, ylt)
        assert "premium=" in quote.summary()
        assert program.name in quote.summary()


class TestBatchQuote:
    def test_batch_matches_individual_quotes(self, tiny_workload):
        program = tiny_workload.program
        variant = program.subset([1], name="variant")
        engine = AggregateRiskEngine()
        quotes = batch_quote([program, variant], tiny_workload.yet, engine=engine)
        assert [q.program_name for q in quotes] == [program.name, "variant"]
        solo = price_program(
            variant, engine.run(variant, tiny_workload.yet).ylt
        )
        assert quotes[1].total_premium == pytest.approx(solo.total_premium)

    def test_accepts_bare_layers(self, tiny_workload):
        layer = tiny_workload.program.layers[0]
        quotes = batch_quote([layer], tiny_workload.yet)
        assert len(quotes) == 1
        assert quotes[0].n_layers == 1

    def test_loading_parameters_forwarded(self, tiny_workload):
        program = tiny_workload.program
        lean = batch_quote(
            [program], tiny_workload.yet, volatility_loading=0.0, expense_ratio=0.0
        )[0]
        loaded = batch_quote(
            [program], tiny_workload.yet, volatility_loading=0.5, expense_ratio=0.2
        )[0]
        assert loaded.total_premium > lean.total_premium
        assert lean.total_premium == pytest.approx(lean.total_expected_loss)
