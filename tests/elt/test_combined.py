"""Tests for repro.elt.combined (the layer loss matrix)."""

import numpy as np
import pytest

from repro.elt.combined import LayerLossMatrix
from repro.elt.table import EventLossTable
from repro.financial.terms import FinancialTerms


def make_elts():
    elt_a = EventLossTable(np.array([1, 3]), np.array([10.0, 30.0]), catalog_size=10,
                           terms=FinancialTerms(share=0.5), name="a")
    elt_b = EventLossTable(np.array([3, 4]), np.array([5.0, 40.0]), catalog_size=10,
                           terms=FinancialTerms(retention=2.0), name="b")
    return [elt_a, elt_b]


class TestLayerLossMatrix:
    def test_shape_and_records(self):
        matrix = LayerLossMatrix(make_elts())
        assert matrix.losses.shape == (2, 10)
        assert matrix.n_elts == 2
        assert matrix.n_records == 4

    def test_dense_placement(self):
        matrix = LayerLossMatrix(make_elts())
        assert matrix.losses[0, 1] == 10.0
        assert matrix.losses[0, 3] == 30.0
        assert matrix.losses[1, 3] == 5.0
        assert matrix.losses[0, 0] == 0.0

    def test_terms_vectors(self):
        matrix = LayerLossMatrix(make_elts())
        np.testing.assert_allclose(matrix.shares, [0.5, 1.0])
        np.testing.assert_allclose(matrix.retentions, [0.0, 2.0])

    def test_gather(self):
        matrix = LayerLossMatrix(make_elts())
        gathered = matrix.gather(np.array([3, 1, 7]))
        np.testing.assert_allclose(gathered, [[30.0, 10.0, 0.0], [5.0, 0.0, 0.0]])

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            LayerLossMatrix(make_elts()).gather(np.array([10]))

    def test_ground_up_event_losses(self):
        matrix = LayerLossMatrix(make_elts())
        np.testing.assert_allclose(
            matrix.ground_up_event_losses(np.array([3, 4])), [35.0, 40.0]
        )

    def test_row_view_readonly(self):
        matrix = LayerLossMatrix(make_elts())
        with pytest.raises(ValueError):
            matrix.row(0)[0] = 1.0

    def test_memory_bytes_reports_what_is_resident(self):
        matrix = LayerLossMatrix(make_elts())
        terms_only = 4 * 2 * 8
        assert matrix.memory_bytes == terms_only  # construction allocates no catalog row
        matrix.combined_net_losses()
        assert matrix.memory_bytes == terms_only + 10 * 8
        matrix.gather(np.array([3]))  # first per-ELT read builds the dense stack
        assert matrix.memory_bytes == terms_only + 10 * 8 + 2 * 10 * 8

    def test_combined_row_is_built_without_the_dense_stack(self):
        matrix = LayerLossMatrix(make_elts())
        net = matrix.combined_net_losses()
        assert matrix._losses is None
        expected = np.zeros(10)
        expected[[1, 3, 4]] = [5.0, 15.0 + 3.0, 38.0]
        np.testing.assert_array_equal(net, expected)
        assert matrix.combined_net_losses() is net
        with pytest.raises(ValueError):
            net[0] = 1.0

    def test_requires_common_catalog_size(self):
        other = EventLossTable(np.array([0]), np.array([1.0]), catalog_size=5)
        with pytest.raises(ValueError):
            LayerLossMatrix(make_elts() + [other])

    def test_requires_at_least_one_elt(self):
        with pytest.raises(ValueError):
            LayerLossMatrix([])

    def test_names_preserved(self):
        assert LayerLossMatrix(make_elts()).names == ("a", "b")
