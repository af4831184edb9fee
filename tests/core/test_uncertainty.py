"""Tests for the secondary-uncertainty extension (repro.uncertainty)."""

import numpy as np
import pytest

from repro.core.kernels import replication_portfolio_losses
from repro.financial.terms import FinancialTerms, LayerTerms, LayerTermsVectors
from repro.uncertainty.analysis import ReplicationSummary, SecondaryUncertaintyAnalysis, UncertainLayer
from repro.uncertainty.table import LossDistributionFamily, UncertainEventLossTable
from repro.yet.table import YearEventTable


def make_uelt(cv: float = 0.5, family=LossDistributionFamily.GAMMA) -> UncertainEventLossTable:
    return UncertainEventLossTable(
        event_ids=np.array([1, 3, 5]),
        mean_losses=np.array([100.0, 200.0, 0.0]),
        cv_losses=np.array([cv, cv, cv]),
        catalog_size=10,
        family=family,
        terms=FinancialTerms(),
        name="uelt",
    )


class TestUncertainEventLossTable:
    def test_expected_elt_preserves_means(self):
        elt = make_uelt().expected_elt()
        np.testing.assert_allclose(elt.losses, [100.0, 200.0, 0.0])
        assert elt.catalog_size == 10

    def test_sample_deterministic_with_seed(self):
        uelt = make_uelt()
        a = uelt.sample_elt(rng=1).losses
        b = uelt.sample_elt(rng=1).losses
        np.testing.assert_allclose(a, b)

    def test_sample_zero_cv_returns_mean(self):
        uelt = make_uelt(cv=0.0)
        np.testing.assert_allclose(uelt.sample_elt(rng=2).losses, [100.0, 200.0, 0.0])

    def test_sample_zero_mean_stays_zero(self):
        sampled = make_uelt(cv=1.0).sample_elt(rng=3)
        assert sampled.losses[2] == 0.0

    @pytest.mark.parametrize("family", list(LossDistributionFamily))
    def test_sample_mean_converges_to_expected(self, family):
        uelt = make_uelt(cv=0.8, family=family)
        samples = np.array([uelt.sample_elt(rng=seed).losses[0] for seed in range(3000)])
        assert samples.mean() == pytest.approx(100.0, rel=0.05)

    def test_from_elt_roundtrip(self):
        elt = make_uelt().expected_elt()
        wrapped = UncertainEventLossTable.from_elt(elt, cv=0.3)
        np.testing.assert_allclose(wrapped.mean_losses, elt.losses)
        np.testing.assert_allclose(wrapped.cv_losses, 0.3)

    @pytest.mark.parametrize("kwargs", [
        dict(mean_losses=np.array([1.0])),                      # length mismatch
        dict(event_ids=np.array([1, 1, 2])),                    # duplicates
        dict(cv_losses=np.array([-0.1, 0.1, 0.1])),             # negative cv
        dict(catalog_size=0),
    ])
    def test_invalid_inputs(self, kwargs):
        base = dict(
            event_ids=np.array([1, 3, 5]),
            mean_losses=np.array([1.0, 2.0, 3.0]),
            cv_losses=np.array([0.1, 0.1, 0.1]),
            catalog_size=10,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            UncertainEventLossTable(**base)


class TestReplicationSummary:
    def test_from_values(self):
        summary = ReplicationSummary.from_values([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.low <= summary.mean <= summary.high

    def test_relative_spread(self):
        summary = ReplicationSummary.from_values([10.0, 20.0])
        assert summary.relative_spread() > 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReplicationSummary.from_values([])


class TestBatchedAnalysis:
    @pytest.fixture()
    def setup(self):
        uelts = [
            UncertainEventLossTable(
                event_ids=np.array([1, 3, 5]),
                mean_losses=np.array([100.0, 200.0, 40.0]),
                cv_losses=np.array([0.5, 0.5, 0.5]),
                catalog_size=10,
                terms=FinancialTerms(retention=5.0, share=0.9),
                name="uelt",
            ),
            UncertainEventLossTable(
                event_ids=np.array([2, 4]),
                mean_losses=np.array([50.0, 80.0]),
                cv_losses=np.array([0.6, 0.6]),
                catalog_size=10,
                name="uelt2",
            ),
        ]
        layer = UncertainLayer(uelts, LayerTerms(aggregate_limit=1e6), name="u-layer")
        yet = YearEventTable.from_trials([[1, 2], [3], [4, 5, 1], [2]], catalog_size=10)
        return layer, yet

    def test_batched_deterministic_given_seed(self, setup):
        layer, yet = setup
        analysis = SecondaryUncertaintyAnalysis([layer])
        a = analysis.run_batched(yet, 10, rng=9)["aal"].values
        b = analysis.run_batched(yet, 10, rng=9)["aal"].values
        np.testing.assert_array_equal(a, b)

    def test_batched_metric_names(self, setup):
        layer, yet = setup
        analysis = SecondaryUncertaintyAnalysis([layer])
        summaries = analysis.run_batched(yet, 200, rng=5, return_periods=(2.0,),
                                         tvar_levels=(0.5,))
        assert set(summaries) == {"aal", "pml_2", "tvar_0.5"}
        assert all(s.values.size == 200 for s in summaries.values())
        assert summaries["aal"].std > 0.0

    def test_replicated_mean_close_to_expected(self, setup):
        layer, yet = setup
        analysis = SecondaryUncertaintyAnalysis([layer])
        summaries = analysis.run_batched(yet, 200, rng=6, return_periods=(2.0,))
        expected = analysis.expected_metrics(yet, return_periods=(2.0,))
        assert summaries["aal"].mean == pytest.approx(expected["aal"], rel=0.1)

    def test_expected_layer_holds_the_mean_losses(self, setup):
        layer, _ = setup
        expected = layer.expected_layer()
        assert (expected.name, expected.terms) == (layer.name, layer.terms)
        for elt, uelt in zip(expected.elts, layer.elts):
            np.testing.assert_array_equal(elt.losses, uelt.mean_losses)
            np.testing.assert_array_equal(elt.event_ids, uelt.event_ids)

    @pytest.mark.parametrize("axes", [
        {"return_periods": (100.0, 100.0)},
        {"return_periods": (100.0, 100.0000001)},
        {"tvar_levels": (0.99, 0.990000001)},
    ])
    def test_colliding_band_names_rejected_before_drawing(self, setup, axes, monkeypatch):
        layer, yet = setup
        analysis = SecondaryUncertaintyAnalysis([layer])
        drawn = []
        monkeypatch.setattr(UncertainLayer, "sample_net_row",
                            lambda *args, **kwargs: drawn.append(1))
        with pytest.raises(ValueError, match="collide"):
            analysis.run_batched(yet, 3, rng=1, **axes)
        assert drawn == []

    def test_zero_cv_collapses_to_deterministic(self):
        uelt = UncertainEventLossTable(
            np.array([1, 3]), np.array([100.0, 200.0]), np.array([0.0, 0.0]),
            catalog_size=10,
        )
        layer = UncertainLayer([uelt], LayerTerms(), name="det")
        yet = YearEventTable.from_trials([[1, 3], [3]], catalog_size=10)
        analysis = SecondaryUncertaintyAnalysis([layer])
        summaries = analysis.run_batched(yet, 5, rng=7, return_periods=(2.0,))
        assert summaries["aal"].std == pytest.approx(0.0, abs=1e-9)

    def test_quote_carries_bands(self, setup):
        layer, yet = setup
        analysis = SecondaryUncertaintyAnalysis([layer])
        quote = analysis.quote(yet, 8, rng=3, return_periods=(2.0,))
        assert quote.uncertainty
        band = quote.band("aal")
        assert band.values.size == 8
        assert "aal_band=" in quote.summary()

    def test_plain_quote_band_access_raises(self, setup):
        layer, yet = setup
        from repro.core.engine import AggregateRiskEngine
        from repro.portfolio.pricing import price_program

        program = SecondaryUncertaintyAnalysis([layer]).expected_program()
        result = AggregateRiskEngine().run(program, yet)
        quote = price_program(program, result.ylt)
        assert not quote.uncertainty
        with pytest.raises(KeyError):
            quote.band("aal")

    def test_sample_net_row_scratch_validation(self, setup):
        layer, _ = setup
        with pytest.raises(ValueError, match="scratch shape"):
            layer.sample_net_row(rng=1, scratch=np.zeros((1, 10)))

    def test_sample_net_row_reuses_scratch(self, setup):
        layer, _ = setup
        scratch = np.zeros(layer.catalog_size)
        a = layer.sample_net_row(rng=4, scratch=scratch).copy()
        b = layer.sample_net_row(rng=4, scratch=scratch)
        np.testing.assert_array_equal(a, b)

    def test_sample_net_row_matches_dense_layer(self, setup):
        layer, _ = setup
        direct = layer.sample_net_row(rng=6)
        rebuilt = layer.sample_layer(rng=6).loss_matrix().combined_net_losses()
        np.testing.assert_array_equal(direct, rebuilt)


class TestReplicationKernelHelpers:
    def test_replication_portfolio_losses(self):
        losses = np.arange(12, dtype=np.float64).reshape(6, 2)
        portfolio = replication_portfolio_losses(losses, n_layers=3)
        assert portfolio.shape == (2, 2)
        np.testing.assert_array_equal(portfolio[0], losses[0:3].sum(axis=0))
        np.testing.assert_array_equal(portfolio[1], losses[3:6].sum(axis=0))

    def test_replication_portfolio_losses_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            replication_portfolio_losses(np.zeros(4), 2)
        with pytest.raises(ValueError, match="positive"):
            replication_portfolio_losses(np.zeros((4, 2)), 0)
        with pytest.raises(ValueError, match="divide"):
            replication_portfolio_losses(np.zeros((5, 2)), 2)

    def test_terms_vectors_tile(self):
        vectors = LayerTermsVectors.from_terms([
            LayerTerms(occurrence_retention=1.0, aggregate_limit=10.0),
            LayerTerms(occurrence_retention=2.0),
        ])
        tiled = vectors.tile(3)
        assert tiled.n_layers == 6
        np.testing.assert_array_equal(
            tiled.occurrence_retentions, [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        )
        np.testing.assert_array_equal(
            tiled.aggregate_limits, [10.0, np.inf] * 3
        )
        with pytest.raises(ValueError):
            vectors.tile(0)
