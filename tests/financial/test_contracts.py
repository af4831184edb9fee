"""Tests for repro.financial.contracts (contract-family constructors)."""

import math

import pytest

from repro.financial.contracts import (
    aggregate_xl_terms,
    combined_xl_terms,
    contract_kind,
    occurrence_xl_terms,
)
from repro.financial.terms import LayerTerms


class TestOccurrenceXL:
    def test_terms_set(self):
        terms = occurrence_xl_terms(retention=1e6, limit=5e6)
        assert terms.occurrence_retention == 1e6
        assert terms.occurrence_limit == 5e6
        assert math.isinf(terms.aggregate_limit)
        assert terms.aggregate_retention == 0.0

    def test_kind(self):
        assert contract_kind(occurrence_xl_terms(1e6, 5e6)) == "per-occurrence XL"

    def test_invalid(self):
        with pytest.raises(ValueError):
            occurrence_xl_terms(-1.0, 5e6)
        with pytest.raises(ValueError):
            occurrence_xl_terms(1.0, 0.0)


class TestAggregateXL:
    def test_terms_set(self):
        terms = aggregate_xl_terms(retention=2e6, limit=1e7)
        assert terms.aggregate_retention == 2e6
        assert terms.aggregate_limit == 1e7
        assert math.isinf(terms.occurrence_limit)

    def test_kind(self):
        assert contract_kind(aggregate_xl_terms(2e6, 1e7)) == "aggregate XL"


class TestCombinedXL:
    def test_terms_set(self):
        terms = combined_xl_terms(1e5, 1e6, 5e5, 5e6)
        assert terms.has_occurrence_terms and terms.has_aggregate_terms

    def test_kind(self):
        assert contract_kind(combined_xl_terms(1e5, 1e6, 5e5, 5e6)) == "combined XL"

    def test_passthrough_kind(self):
        assert contract_kind(LayerTerms()) == "pass-through"
