"""Tests for repro.financial.terms (Table I semantics)."""

import math

import pytest

from repro.financial.terms import FinancialTerms, LayerTerms, LayerTermsVectors


class TestFinancialTerms:
    def test_passthrough_defaults(self):
        terms = FinancialTerms()
        assert (terms.retention, terms.limit, terms.share, terms.fx_rate) == (
            0.0, math.inf, 1.0, 1.0)
        assert terms.apply(123.4) == pytest.approx(123.4)

    def test_retention_subtracted(self):
        terms = FinancialTerms(retention=100.0)
        assert terms.apply(250.0) == pytest.approx(150.0)
        assert terms.apply(80.0) == 0.0

    def test_limit_caps(self):
        terms = FinancialTerms(limit=300.0)
        assert terms.apply(1000.0) == pytest.approx(300.0)

    def test_share_scales(self):
        assert FinancialTerms(share=0.25).apply(400.0) == pytest.approx(100.0)

    def test_fx_applied_before_retention(self):
        terms = FinancialTerms(retention=100.0, fx_rate=2.0)
        # 100 * 2 = 200 gross, minus retention 100 = 100
        assert terms.apply(100.0) == pytest.approx(100.0)

    def test_full_stack(self):
        terms = FinancialTerms(retention=50.0, limit=200.0, share=0.5, fx_rate=1.5)
        # 300 * 1.5 = 450; min(max(450 - 50, 0), 200) = 200; * 0.5 = 100
        assert terms.apply(300.0) == pytest.approx(100.0)

    @pytest.mark.parametrize("kwargs", [
        dict(retention=-1.0),
        dict(limit=-1.0),
        dict(share=1.2),
        dict(share=-0.1),
        dict(fx_rate=0.0),
    ])
    def test_invalid_terms(self, kwargs):
        with pytest.raises(ValueError):
            FinancialTerms(**kwargs)

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            FinancialTerms().apply(-5.0)


class TestLayerTerms:
    def test_passthrough_defaults(self):
        terms = LayerTerms()
        assert terms == LayerTerms(0.0, math.inf, 0.0, math.inf)
        assert not terms.has_occurrence_terms
        assert not terms.has_aggregate_terms

    def test_occurrence_application_matches_table1(self):
        # Table I: occurrence loss net of retention, capped at the limit.
        terms = LayerTerms(occurrence_retention=100.0, occurrence_limit=400.0)
        assert terms.apply_occurrence(50.0) == 0.0
        assert terms.apply_occurrence(300.0) == pytest.approx(200.0)
        assert terms.apply_occurrence(1000.0) == pytest.approx(400.0)

    def test_aggregate_application_matches_table1(self):
        terms = LayerTerms(aggregate_retention=500.0, aggregate_limit=1000.0)
        assert terms.apply_aggregate(400.0) == 0.0
        assert terms.apply_aggregate(900.0) == pytest.approx(400.0)
        assert terms.apply_aggregate(5000.0) == pytest.approx(1000.0)

    def test_flags(self):
        assert LayerTerms(occurrence_retention=1.0).has_occurrence_terms
        assert LayerTerms(aggregate_limit=10.0).has_aggregate_terms

    def test_describe_mentions_all_terms(self):
        text = LayerTerms(1.0, 2.0, 3.0, 4.0).describe()
        for token in ("T_OccR", "T_OccL", "T_AggR", "T_AggL"):
            assert token in text

    def test_describe_unlimited(self):
        assert "unlimited" in LayerTerms().describe()

    @pytest.mark.parametrize("kwargs", [
        dict(occurrence_retention=-1.0),
        dict(occurrence_limit=-2.0),
        dict(aggregate_retention=-3.0),
        dict(aggregate_limit=-4.0),
    ])
    def test_invalid_terms(self, kwargs):
        with pytest.raises(ValueError):
            LayerTerms(**kwargs)

    def test_negative_losses_rejected(self):
        with pytest.raises(ValueError):
            LayerTerms().apply_occurrence(-1.0)
        with pytest.raises(ValueError):
            LayerTerms().apply_aggregate(-1.0)


class TestLayerTermsVectors:
    def make_terms(self):
        return [
            LayerTerms(1.0, 10.0, 100.0, 1000.0),
            LayerTerms(2.0, float("inf"), 0.0, 500.0),
            LayerTerms(),
        ]

    def test_from_terms_round_trips(self):
        terms = self.make_terms()
        vectors = LayerTermsVectors.from_terms(terms)
        assert vectors.n_layers == len(vectors) == 3
        assert list(vectors) == terms
        assert vectors[1] == terms[1]

    def test_take_permutes(self):
        vectors = LayerTermsVectors.from_terms(self.make_terms())
        permuted = vectors.take([2, 0, 1])
        assert permuted[0] == vectors[2]
        assert permuted[2] == vectors[1]

    def test_mismatched_vector_lengths_rejected(self):
        import numpy as np

        with pytest.raises(ValueError):
            LayerTermsVectors(
                np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2)
            )

    def test_invalid_term_values_rejected(self):
        import numpy as np

        ok = np.zeros(1)
        inf = np.array([float("inf")])
        with pytest.raises(ValueError, match="non-negative"):
            LayerTermsVectors(np.array([-5.0]), ok, ok, ok)
        with pytest.raises(ValueError, match="non-negative"):
            LayerTermsVectors(ok, ok, ok, np.array([-1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            LayerTermsVectors(np.array([float("nan")]), ok, ok, ok)
        with pytest.raises(ValueError, match="finite"):
            LayerTermsVectors(inf, ok, ok, ok)
        # limits may be infinite, matching LayerTerms
        LayerTermsVectors(ok, inf, ok, inf)
