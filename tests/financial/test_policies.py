"""Tests for repro.financial.policies (vectorised term application)."""

import numpy as np
import pytest

from repro.financial.policies import (
    aggregate_terms_shortcut,
    apply_aggregate_terms_cumulative,
    apply_financial_terms,
    apply_financial_terms_matrix,
    apply_occurrence_terms,
    clip_aggregate_totals,
)
from repro.financial.terms import FinancialTerms, LayerTerms, LayerTermsVectors


def layer_net_of_terms(per_event, offsets, terms):
    """Year loss per trial: occurrence terms, then the telescoped aggregate."""
    return aggregate_terms_shortcut(apply_occurrence_terms(per_event, terms), offsets, terms)


class TestApplyFinancialTerms:
    def test_matches_scalar_apply(self):
        terms = FinancialTerms(retention=10.0, limit=100.0, share=0.8, fx_rate=1.3)
        losses = np.array([0.0, 5.0, 50.0, 500.0])
        expected = [terms.apply(float(x)) for x in losses]
        np.testing.assert_allclose(apply_financial_terms(losses, terms), expected)

    def test_input_not_modified(self):
        losses = np.array([10.0, 20.0])
        apply_financial_terms(losses, FinancialTerms(retention=5.0))
        np.testing.assert_allclose(losses, [10.0, 20.0])


class TestApplyFinancialTermsMatrix:
    def test_rowwise_terms(self):
        losses = np.array([[100.0, 200.0], [100.0, 200.0]])
        result = apply_financial_terms_matrix(
            losses,
            retentions=np.array([0.0, 50.0]),
            limits=np.array([150.0, np.inf]),
            shares=np.array([1.0, 0.5]),
        )
        np.testing.assert_allclose(result, [[100.0, 150.0], [25.0, 75.0]])

    def test_fx_rates_applied(self):
        losses = np.array([[100.0]])
        result = apply_financial_terms_matrix(
            losses, np.array([0.0]), np.array([np.inf]), np.array([1.0]), np.array([2.0])
        )
        np.testing.assert_allclose(result, [[200.0]])

    def test_matches_per_row_scalar_function(self):
        rng = np.random.default_rng(3)
        losses = rng.gamma(2.0, 100.0, size=(4, 50))
        retentions = rng.uniform(0, 50, 4)
        limits = rng.uniform(100, 300, 4)
        shares = rng.uniform(0.3, 1.0, 4)
        result = apply_financial_terms_matrix(losses, retentions, limits, shares)
        for row in range(4):
            terms = FinancialTerms(retentions[row], limits[row], shares[row])
            np.testing.assert_allclose(result[row], apply_financial_terms(losses[row], terms))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            apply_financial_terms_matrix(np.zeros(3), np.zeros(1), np.ones(1), np.ones(1))


class TestOccurrenceAndAggregateTerms:
    def test_occurrence_terms_match_scalar(self):
        terms = LayerTerms(occurrence_retention=50.0, occurrence_limit=100.0)
        losses = np.array([0.0, 40.0, 120.0, 400.0])
        expected = [terms.apply_occurrence(float(x)) for x in losses]
        np.testing.assert_allclose(apply_occurrence_terms(losses, terms), expected)

    def test_shortcut_equals_cumulative_pass(self):
        rng = np.random.default_rng(8)
        losses = rng.gamma(1.5, 100.0, size=60)
        offsets = np.array([0, 10, 10, 25, 40, 60])
        terms = LayerTerms(aggregate_retention=300.0, aggregate_limit=1200.0)
        np.testing.assert_allclose(
            aggregate_terms_shortcut(losses, offsets, terms),
            apply_aggregate_terms_cumulative(losses, offsets, terms),
            rtol=1e-12,
        )

    def test_cumulative_pass_empty_trials(self):
        terms = LayerTerms(aggregate_retention=10.0, aggregate_limit=50.0)
        result = apply_aggregate_terms_cumulative(np.zeros(0), np.array([0, 0, 0]), terms)
        np.testing.assert_allclose(result, [0.0, 0.0])

    def test_aggregate_limit_binds(self):
        losses = np.array([100.0, 100.0, 100.0])
        offsets = np.array([0, 3])
        terms = LayerTerms(aggregate_retention=0.0, aggregate_limit=150.0)
        np.testing.assert_allclose(aggregate_terms_shortcut(losses, offsets, terms), [150.0])

    def test_aggregate_retention_binds(self):
        losses = np.array([100.0, 100.0])
        offsets = np.array([0, 2])
        terms = LayerTerms(aggregate_retention=150.0, aggregate_limit=np.inf)
        np.testing.assert_allclose(aggregate_terms_shortcut(losses, offsets, terms), [50.0])


class TestLayerNetOfTerms:
    def test_hand_computed_example(self):
        # One trial with three occurrences of combined losses 100, 200, 300.
        per_event = np.array([100.0, 200.0, 300.0])
        offsets = np.array([0, 3])
        terms = LayerTerms(
            occurrence_retention=50.0,
            occurrence_limit=200.0,
            aggregate_retention=100.0,
            aggregate_limit=250.0,
        )
        # Occurrence losses: 50, 150, 200 -> total 400.
        # Aggregate: min(max(400 - 100, 0), 250) = 250.
        np.testing.assert_allclose(layer_net_of_terms(per_event, offsets, terms), [250.0])

    def test_shortcut_flag_equivalence(self):
        rng = np.random.default_rng(11)
        per_event = rng.gamma(2.0, 50.0, size=40)
        offsets = np.array([0, 15, 30, 40])
        terms = LayerTerms(10.0, 120.0, 200.0, 600.0)
        # The telescoped aggregate pass equals the paper's literal one.
        np.testing.assert_allclose(
            layer_net_of_terms(per_event, offsets, terms),
            apply_aggregate_terms_cumulative(
                apply_occurrence_terms(per_event, terms), offsets, terms
            ),
            rtol=1e-12,
        )

    def test_passthrough_terms_sum_events(self):
        per_event = np.array([10.0, 20.0, 5.0])
        offsets = np.array([0, 2, 3])
        np.testing.assert_allclose(
            layer_net_of_terms(per_event, offsets, LayerTerms()), [30.0, 5.0]
        )


class TestClipAggregateTotals:
    def test_each_row_takes_its_own_retention_and_limit(self):
        vectors = LayerTermsVectors.from_terms([
            LayerTerms(aggregate_retention=10.0, aggregate_limit=50.0),
            LayerTerms(),
        ])
        totals = np.array([[5.0, 30.0, 100.0], [5.0, 30.0, 100.0]])
        np.testing.assert_array_equal(
            clip_aggregate_totals(totals, vectors), [[0.0, 20.0, 50.0], [5.0, 30.0, 100.0]]
        )

    def test_totals_not_modified(self):
        vectors = LayerTermsVectors.from_terms([LayerTerms(aggregate_retention=1.0)])
        totals = np.array([[3.0, 4.0]])
        clipped = clip_aggregate_totals(totals, vectors)
        np.testing.assert_array_equal(totals, [[3.0, 4.0]])
        assert not np.shares_memory(clipped, totals)
