"""Tests for repro.portfolio.program."""

import numpy as np
import pytest

from repro.elt.table import EventLossTable
from repro.financial.terms import LayerTerms
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram


def make_layer(name: str, n_elts: int = 2, catalog_size: int = 30, **term_kwargs) -> Layer:
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    elts = [
        EventLossTable(
            rng.choice(catalog_size, 4, replace=False), rng.gamma(2.0, 10.0, 4), catalog_size
        )
        for _ in range(n_elts)
    ]
    return Layer(elts, LayerTerms(**term_kwargs), name=name, premium=50.0)


def make_program() -> ReinsuranceProgram:
    layers = [
        make_layer("occ", occurrence_retention=5.0, occurrence_limit=50.0),
        make_layer("agg", aggregate_retention=5.0, aggregate_limit=100.0),
        make_layer("both", occurrence_retention=5.0, occurrence_limit=50.0,
                   aggregate_retention=5.0, aggregate_limit=100.0, n_elts=4),
    ]
    return ReinsuranceProgram(layers, name="prog")


class TestReinsuranceProgram:
    def test_shape(self):
        program = make_program()
        assert program.n_layers == len(program) == 3
        assert program.catalog_size == 30
        assert program.mean_elts_per_layer == pytest.approx((2 + 2 + 4) / 3)

    def test_iteration_and_indexing(self):
        program = make_program()
        assert program[0].name == "occ"
        assert [layer.name for layer in program] == ["occ", "agg", "both"]

    def test_layer_names(self):
        assert make_program().layer_names == ("occ", "agg", "both")

    def test_total_premium(self):
        assert make_program().total_premium == pytest.approx(150.0)

    def test_group_by_contract_kind(self):
        groups = make_program().group_by_contract_kind()
        assert set(groups) == {"per-occurrence XL", "aggregate XL", "combined XL"}

    def test_group_by_arbitrary_key_keeps_layer_order(self):
        program = make_program()
        groups = program.group_by(lambda layer: "big" if layer.n_elts > 2 else "small")
        assert [layer.name for layer in groups["small"]] == ["occ", "agg"]
        assert [layer.name for layer in groups["big"]] == ["both"]

    def test_subset(self):
        subset = make_program().subset([0, 2], name="sub")
        assert subset.n_layers == 2
        assert subset.layer_names == ("occ", "both")

    def test_memory_estimate(self):
        program = make_program()
        expected = (2 + 2 + 4) * 30 * 8
        assert program.memory_estimate_bytes() == expected

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            ReinsuranceProgram([])

    def test_mixed_catalog_sizes_rejected(self):
        mismatched = make_layer("other", catalog_size=60)
        with pytest.raises(ValueError):
            ReinsuranceProgram([make_layer("a"), mismatched])
