"""Tests for repro.ylt.table (the Year Loss Table)."""

import numpy as np
import pytest

from repro.ylt.table import YearLossTable


def make_ylt() -> YearLossTable:
    losses = np.array([[1.0, 2.0, 3.0], [10.0, 0.0, 5.0]])
    occ = np.array([[1.0, 1.5, 2.0], [8.0, 0.0, 4.0]])
    return YearLossTable(losses, ["cat-xl", "stop-loss"], occ)


class TestConstruction:
    def test_shapes(self):
        ylt = make_ylt()
        assert ylt.n_layers == 2
        assert ylt.n_trials == 3
        assert len(ylt) == 3

    def test_1d_input_promoted(self):
        ylt = YearLossTable(np.array([1.0, 2.0]))
        assert ylt.n_layers == 1
        assert ylt.layer_names == ("layer_0",)

    def test_default_layer_names(self):
        ylt = YearLossTable(np.zeros((3, 2)))
        assert ylt.layer_names == ("layer_0", "layer_1", "layer_2")

    def test_negative_losses_rejected(self):
        with pytest.raises(ValueError):
            YearLossTable(np.array([[-1.0]]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            YearLossTable(np.array([[np.nan]]))

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError):
            YearLossTable(np.zeros((2, 3)), ["only-one"])

    def test_occurrence_shape_mismatch(self):
        with pytest.raises(ValueError):
            YearLossTable(np.zeros((2, 3)), max_occurrence_losses=np.zeros((2, 2)))


class TestAccess:
    def test_layer_by_index_and_name(self):
        ylt = make_ylt()
        np.testing.assert_allclose(ylt.layer(0), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(ylt.layer("stop-loss"), [10.0, 0.0, 5.0])

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            make_ylt().layer("missing")

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            make_ylt().layer(5)


class TestAggregation:
    def test_portfolio_losses(self):
        np.testing.assert_allclose(make_ylt().portfolio_losses(), [11.0, 2.0, 8.0])

    def test_portfolio_max_occurrence(self):
        np.testing.assert_allclose(make_ylt().portfolio_max_occurrence(), [9.0, 1.5, 6.0])

    def test_merged_with(self):
        merged = make_ylt().merged_with(YearLossTable(np.array([[7.0, 7.0, 7.0]]), ["extra"]))
        assert merged.n_layers == 3
        assert merged.layer_names[-1] == "extra"
        np.testing.assert_allclose(merged.portfolio_losses(), [18.0, 9.0, 15.0])

    def test_merged_requires_same_trials(self):
        with pytest.raises(ValueError):
            make_ylt().merged_with(YearLossTable(np.array([[1.0]])))

    def test_merged_drops_occurrence_if_missing(self):
        merged = make_ylt().merged_with(YearLossTable(np.array([[1.0, 1.0, 1.0]])))
        assert merged.max_occurrence_losses is None
