"""Every serving path quotes through the batched metrics kernel, same bits.

For one book, the :class:`ProgramQuote` served on the miss, exact, row-delta,
append-delta and ``run_many`` paths must equal — field by field, ``==`` —
``price_program`` of a cold monolithic ``vectorized`` run, and that
``price_program`` must spend exactly one ``np.quantile`` call however many
layers the program has (the per-layer scalar loop must not creep back).
Uncertainty bands must not depend on whether replications were reduced as one
matrix (``batched``) or one vector at a time (``replay``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.portfolio.layer import Layer
from repro.portfolio.pricing import price_layer, price_program
from repro.portfolio.program import ReinsuranceProgram
from repro.service import RiskService
from repro.service.service import candidate_variants

from tests.service.test_result_cache import append_trials, with_scaled_layer


def cold_quote(program, yet):
    """``price_program`` of a cold monolithic vectorized run: the oracle."""
    result = AggregateRiskEngine(EngineConfig(backend="vectorized")).run(program, yet)
    return price_program(program, result.ylt)


def assert_quotes_equal(served, oracle):
    # rate_on_line is NaN for unlimited layers, so compare it NaN-aware and
    # everything else (nested RiskMetrics dicts included) with plain ==.
    assert served.layer_names == oracle.layer_names
    assert len(served.layer_pricings) == len(oracle.layer_pricings)
    for got, want in zip(served.layer_pricings, oracle.layer_pricings):
        got_fields, want_fields = dataclasses.asdict(got), dataclasses.asdict(want)
        np.testing.assert_array_equal(
            got_fields.pop("rate_on_line"), want_fields.pop("rate_on_line")
        )
        assert got_fields == want_fields


class TestServedQuotesEqualColdPriceProgram:
    def test_miss_exact_rows_append_and_run_many(self, tiny_workload):
        base, yet = tiny_workload.program, tiny_workload.yet
        changed = with_scaled_layer(base, 0)
        extended = append_trials(yet, 48)
        served = {}
        with RiskService(EngineConfig(backend="vectorized"), result_cache=True) as service:
            service.register_program("base", base)
            service.register_program("changed", changed)
            service.register_yet("book", yet)

            def quote(program, expect):
                response = service.submit(
                    {"kind": "run", "program": program, "yet": "book", "quote": True}
                )
                assert response.result_cache["status"] == expect
                (only,) = response.quotes
                return only

            served["miss"] = quote("base", "miss")
            served["exact"] = quote("base", "exact")
            served["rows"] = quote("changed", "rows")
            service.register_yet("book", extended)
            served["append"] = quote("base", "append")
            many = service.submit(
                {"kind": "run_many", "program": "base", "variants": 3,
                 "yet": "book", "quote": True}
            )

        assert_quotes_equal(served["miss"], cold_quote(base, yet))
        assert_quotes_equal(served["exact"], cold_quote(base, yet))
        assert_quotes_equal(served["rows"], cold_quote(changed, yet))
        assert_quotes_equal(served["append"], cold_quote(base, extended))
        variants = candidate_variants(base, 3)
        assert len(many.quotes) == len(variants) == 3
        for got, variant in zip(many.quotes, variants):
            assert_quotes_equal(got, cold_quote(variant, extended))

    def test_program_quote_equals_layer_by_layer_pricing(self, tiny_workload):
        result = AggregateRiskEngine(EngineConfig(backend="vectorized")).run(
            tiny_workload.program, tiny_workload.yet
        )
        quote = price_program(tiny_workload.program, result.ylt, 0.4, 0.1)
        for index, layer in enumerate(tiny_workload.program.layers):
            alone = price_layer(layer, result.ylt.layer(index), 0.4, 0.1)
            np.testing.assert_equal(
                dataclasses.asdict(quote.layer_pricings[index]), dataclasses.asdict(alone)
            )


def never_priced(program):
    """The same ELTs under fresh Layer objects: no loss matrix exists yet."""
    layers = [Layer(layer.elts, layer.terms, name=layer.name) for layer in program.layers]
    return ReinsuranceProgram(layers, name=program.name)


class TestColdQuoteSkipsTheDenseStack:
    def test_fused_quote_leaves_every_dense_stack_unbuilt(self, tiny_workload):
        program, yet = never_priced(tiny_workload.program), tiny_workload.yet
        with RiskService(EngineConfig(backend="vectorized"), result_cache=True) as service:
            service.register_program("fresh", program)
            service.register_yet("book", yet)
            cold = service.submit(
                {"kind": "run", "program": "fresh", "yet": "book", "quote": True}
            )
        assert cold.result_cache["status"] == "miss"
        assert all(layer.loss_matrix()._losses is None for layer in program.layers)

        per_elt = never_priced(tiny_workload.program)
        unfused = AggregateRiskEngine(
            EngineConfig(backend="vectorized", fused_layers=False)
        ).run(per_elt, yet)
        assert all(layer.loss_matrix()._losses is not None for layer in per_elt.layers)
        np.testing.assert_array_equal(unfused.ylt.losses, cold.result.ylt.losses)

    def test_variants_of_a_never_priced_program_share_matrix_and_row(self, tiny_workload):
        base = never_priced(tiny_workload.program)
        variants = candidate_variants(base, 3)
        for index, layer in enumerate(base.layers):
            matrices = {id(variant.layers[index].loss_matrix()) for variant in variants}
            assert matrices == {id(layer.loss_matrix())}
            rows = {id(v.layers[index].loss_matrix().combined_net_losses()) for v in variants}
            assert len(rows) == 1


class TestQuantileCallShape:
    def test_one_quantile_call_per_price_program(self, tiny_workload, quantile_calls):
        # A 16-layer program: the pre-batch path spent 16 x 10 scalar calls here.
        program = tiny_workload.program
        layers = [program.layers[i % program.n_layers] for i in range(16)]
        wide = type(program)(layers, name="wide")
        result = AggregateRiskEngine(EngineConfig(backend="vectorized")).run(
            wide, tiny_workload.yet
        )
        assert quantile_calls == []
        quote = price_program(wide, result.ylt)
        assert quote.n_layers == 16
        assert quantile_calls == [1]

    def test_served_exact_hit_spends_one_quantile_call(self, tiny_workload, quantile_calls):
        with RiskService(EngineConfig(backend="vectorized"), result_cache=True) as service:
            service.register_workload("w", tiny_workload)
            service.submit({"kind": "run", "program": "w", "quote": True})
            del quantile_calls[:]
            warm = service.submit({"kind": "run", "program": "w", "quote": True})
        assert warm.result_cache["status"] == "exact"
        assert quantile_calls == [1]


class TestUncertaintyBands:
    REQUEST = {
        "kind": "uncertainty", "program": "tiny", "replications": 6, "seed": 2012,
        "return_periods": [10.0, 100.0, 250.0], "tvar_levels": [0.9, 0.99],
        "quote": True,
    }

    def test_batched_bands_equal_replay_bit_for_bit(self, tiny_workload):
        with RiskService(EngineConfig(backend="vectorized")) as service:
            service.register_workload("tiny", tiny_workload)
            batched = service.submit({**self.REQUEST, "method": "batched"})
            blocked = service.submit(
                {**self.REQUEST, "method": "batched", "replication_block": 4}
            )
            replay = service.submit({**self.REQUEST, "method": "replay"})
        assert set(batched.bands) == {
            "aal", "pml_10", "pml_100", "pml_250", "tvar_0.9", "tvar_0.99"
        }
        for name, band in replay.bands.items():
            np.testing.assert_array_equal(batched.bands[name].values, band.values)
            np.testing.assert_array_equal(blocked.bands[name].values, band.values)
        assert_quotes_equal(batched.quotes[0], replay.quotes[0])
        assert batched.quotes[0].has_uncertainty
