"""Tests for repro.portfolio.layer."""

import numpy as np
import pytest

from repro.elt.table import EventLossTable
from repro.financial.terms import LayerTerms
from repro.portfolio.layer import Layer, terms_bytes


def make_elts(n: int = 3, catalog_size: int = 50):
    rng = np.random.default_rng(1)
    elts = []
    for i in range(n):
        ids = rng.choice(catalog_size, size=5, replace=False)
        elts.append(EventLossTable(ids, rng.gamma(2.0, 100.0, 5), catalog_size, name=f"elt-{i}"))
    return elts


class TestLayer:
    def test_shape_accessors(self):
        layer = Layer(make_elts(4), LayerTerms(), name="test")
        assert layer.n_elts == 4
        assert layer.catalog_size == 50
        assert layer.n_records == 20

    def test_default_terms_passthrough(self):
        assert Layer(make_elts()).terms == LayerTerms()

    def test_contract_kind(self):
        layer = Layer(make_elts(), LayerTerms(occurrence_retention=10.0, occurrence_limit=100.0))
        assert layer.contract_kind == "per-occurrence XL"

    def test_loss_matrix_cached(self):
        layer = Layer(make_elts())
        assert layer.loss_matrix() is layer.loss_matrix()

    def test_terms_are_part_of_the_digest(self):
        elts = make_elts()
        base = Layer(elts, LayerTerms(occurrence_retention=10.0), name="l")
        assert terms_bytes(base.terms) == terms_bytes(LayerTerms(occurrence_retention=10.0))
        assert base.digest == Layer(elts, LayerTerms(occurrence_retention=10.0), name="l").digest
        for changed in (LayerTerms(occurrence_retention=11.0), LayerTerms(occurrence_limit=5.0),
                        LayerTerms(aggregate_retention=1.0), LayerTerms(aggregate_limit=5.0)):
            assert terms_bytes(changed) != terms_bytes(base.terms)
            assert base.with_terms(changed).digest != base.digest

    def test_with_terms_shares_matrix(self):
        layer = Layer(make_elts(), name="original", premium=100.0)
        matrix = layer.loss_matrix()
        clone = layer.with_terms(LayerTerms(aggregate_limit=1e6))
        assert clone.loss_matrix() is matrix
        assert clone.terms.aggregate_limit == 1e6
        assert clone.name == "original"
        assert clone.premium == 100.0

    def test_with_terms_shares_matrix_before_first_pricing(self):
        layer = Layer(make_elts())
        first = layer.with_terms(LayerTerms(aggregate_limit=1e6))
        second = layer.with_terms(LayerTerms(occurrence_retention=5.0))
        assert first.loss_matrix() is second.loss_matrix() is layer.loss_matrix()
        assert first.loss_matrix().combined_net_losses() is layer.loss_matrix().combined_net_losses()

    def test_with_terms_new_name(self):
        clone = Layer(make_elts(), name="a").with_terms(LayerTerms(), name="b")
        assert clone.name == "b"

    def test_requires_elts(self):
        with pytest.raises(ValueError):
            Layer([], LayerTerms())

    def test_requires_common_catalog(self):
        elts = make_elts(2)
        other = EventLossTable(np.array([0]), np.array([1.0]), catalog_size=10)
        with pytest.raises(ValueError):
            Layer(elts + [other])

    def test_negative_premium_rejected(self):
        with pytest.raises(ValueError):
            Layer(make_elts(), premium=-1.0)
