"""Tests for repro.elt.table (the canonical EventLossTable)."""

import copy
import pickle

import numpy as np
import pytest

from repro.elt.table import EventLossTable
from repro.financial.terms import FinancialTerms


def make_elt(**overrides) -> EventLossTable:
    kwargs = dict(
        event_ids=np.array([5, 1, 9]),
        losses=np.array([10.0, 20.0, 30.0]),
        catalog_size=20,
        name="test",
    )
    kwargs.update(overrides)
    return EventLossTable(**kwargs)


class TestEventLossTableConstruction:
    def test_valid_table(self):
        elt = make_elt()
        assert elt.size == 3
        assert elt.catalog_size == 20
        assert elt.density == pytest.approx(0.15)

    def test_default_terms_passthrough(self):
        assert make_elt().terms == FinancialTerms()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_elt(losses=np.array([1.0]))

    def test_event_ids_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_elt(event_ids=np.array([5, 1, 25]))

    def test_duplicate_event_ids_rejected(self):
        with pytest.raises(ValueError):
            make_elt(event_ids=np.array([5, 5, 9]))

    def test_negative_losses_rejected(self):
        with pytest.raises(ValueError):
            make_elt(losses=np.array([1.0, -2.0, 3.0]))

    def test_non_finite_losses_rejected(self):
        with pytest.raises(ValueError):
            make_elt(losses=np.array([1.0, np.inf, 3.0]))

    def test_zero_catalog_rejected(self):
        with pytest.raises(ValueError):
            make_elt(catalog_size=0)

    def test_empty_elt_allowed(self):
        elt = EventLossTable(np.array([], dtype=np.int64), np.array([]), catalog_size=10)
        assert elt.size == 0
        assert elt.density == 0.0


class TestEventLossTableViews:
    def test_iteration(self):
        pairs = list(make_elt())
        assert (5, 10.0) in pairs and len(pairs) == 3

    def test_dense_losses(self):
        dense = make_elt().dense_losses()
        assert dense.shape == (20,)
        assert dense[5] == 10.0
        assert dense[0] == 0.0
        assert dense.sum() == pytest.approx(60.0)

    def test_from_dict_drops_zero_losses(self):
        elt = EventLossTable.from_dict({3: 5.0, 7: 0.0, 2: 1.0}, catalog_size=10)
        assert elt.size == 2
        assert 7 not in elt.event_ids

    def test_from_dict_empty(self):
        elt = EventLossTable.from_dict({}, catalog_size=10)
        assert elt.size == 0


class TestEventLossTableDigest:
    def test_digest_is_stored_on_first_read(self):
        elt = make_elt()
        assert elt._digest is None
        assert elt.digest is elt.digest
        assert elt.digest == make_elt(name="other").digest  # the name is not digested

    @pytest.mark.parametrize("restore", [
        lambda elt: pickle.loads(pickle.dumps(elt)),
        copy.deepcopy,
        copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    def test_restored_table_is_read_only_and_rehashes(self, restore):
        elt = make_elt(terms=FinancialTerms(retention=5.0))
        digest = elt.digest
        clone = restore(elt)
        assert "_digest" not in clone.__dict__  # the copy never vouches for itself
        assert not clone.event_ids.flags.writeable
        assert not clone.losses.flags.writeable
        np.testing.assert_array_equal(clone.losses, elt.losses)
        assert clone.terms == elt.terms and clone.name == elt.name
        assert clone.digest == digest
