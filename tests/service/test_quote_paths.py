"""Every serving path quotes through the batched metrics kernel, same bits.

For one book, the :class:`ProgramQuote` served on the miss, exact, row-delta,
append-delta and ``run_many`` paths must equal — field by field, ``==`` —
``price_program`` of a cold monolithic ``vectorized`` run, and that
``price_program`` must spend exactly one ``np.quantile`` call however many
layers the program has (the per-layer scalar loop must not creep back).  A
cached answer is quoted once: its per-row metrics live with the result-cache
entry, so an exact hit spends no quantile call and a row delta spends one over
just the changed rows.
Uncertainty bands must not depend on whether replications were reduced as one
matrix (``batched``) or one vector at a time (``replay``).
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.results import PartialResult, ResultAccumulator
from repro.parallel.partitioner import TrialRange
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
        # The one call is the miss's; the exact hit quotes from the entry's memo.
        with RiskService(EngineConfig(backend="vectorized"), result_cache=True) as service:
            service.register_workload("w", tiny_workload)
            service.submit({"kind": "run", "program": "w", "quote": True})
            assert quantile_calls == [1]
            warm = service.submit({"kind": "run", "program": "w", "quote": True})
        assert warm.result_cache["status"] == "exact"
        assert quantile_calls == [1]

    def test_row_delta_quotes_only_the_changed_rows(self, tiny_workload, monkeypatch):
        program, yet = tiny_workload.program, tiny_workload.yet
        wide = ReinsuranceProgram(
            [program.layers[i % program.n_layers] for i in range(4)], name="wide"
        )
        changed = with_scaled_layer(with_scaled_layer(wide, 1), 2)
        shapes = []
        real_quantile = np.quantile

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_quantile(a, *args, **kwargs)

        with RiskService(EngineConfig(backend="vectorized"), result_cache=True) as service:
            service.register_program("wide", wide)
            service.register_program("changed", changed)
            service.register_yet("book", yet)
            service.submit({"kind": "run", "program": "wide", "yet": "book", "quote": True})
            monkeypatch.setattr(np, "quantile", spy)
            delta = service.submit(
                {"kind": "run", "program": "changed", "yet": "book", "quote": True}
            )
            monkeypatch.undo()
        assert delta.result_cache["repriced_rows"] == [1, 2]
        assert shapes == [(2, yet.n_trials)]
        assert_quotes_equal(delta.quotes[0], cold_quote(changed, yet))


def run_request(program, quote=True):
    return {"kind": "run", "program": program, "yet": "book", "quote": quote}


class TestQuotingACachedAnswer:
    """The per-row metrics memo that rides each result-cache entry."""

    @staticmethod
    def service(tiny_workload):
        service = RiskService(EngineConfig(backend="vectorized"), result_cache=True)
        service.register_program("base", tiny_workload.program)
        service.register_program("changed", with_scaled_layer(tiny_workload.program, 0))
        service.register_yet("book", tiny_workload.yet)
        return service

    @pytest.mark.parametrize(
        "path, quoted", [("miss", "all"), ("exact", 0), ("rows", 1), ("append", "all")]
    )
    def test_quoted_rows_counts_the_rows_this_answer_computed(
        self, tiny_workload, path, quoted
    ):
        with self.service(tiny_workload) as service:
            served = {
                "miss": service.submit(run_request("base")),
                "exact": service.submit(run_request("base")),
                "rows": service.submit(run_request("changed")),
            }
            service.register_yet("book", append_trials(tiny_workload.yet, 48))
            served["append"] = service.submit(run_request("base"))
        info = served[path].result_cache
        assert info["status"] == path
        n_layers = tiny_workload.program.n_layers
        assert info["quoted_rows"] == (n_layers if quoted == "all" else quoted)

    def test_append_quote_is_the_longer_books_not_the_entrys(self, tiny_workload):
        base, yet = tiny_workload.program, tiny_workload.yet
        extended = append_trials(yet, 48)
        with self.service(tiny_workload) as service:
            (short,) = service.submit(run_request("base")).quotes
            service.register_yet("book", extended)
            (longer,) = service.submit(run_request("base")).quotes
        assert_quotes_equal(longer, cold_quote(base, extended))
        assert longer.layer_pricings[0].metrics != short.layer_pricings[0].metrics

    def test_unquoted_miss_then_quoted_exact_hit(self, tiny_workload):
        program = tiny_workload.program
        with self.service(tiny_workload) as service:
            miss = service.submit(run_request("base", quote=False))
            first = service.submit(run_request("base"))
            second = service.submit(run_request("base"))
        assert miss.quotes == () and miss.result_cache["quoted_rows"] == 0
        assert first.result_cache["status"] == second.result_cache["status"] == "exact"
        # The memo is filled lazily, on the first quoted use of the entry.
        assert first.result_cache["quoted_rows"] == program.n_layers
        assert second.result_cache["quoted_rows"] == 0
        oracle = cold_quote(program, tiny_workload.yet)
        assert_quotes_equal(first.quotes[0], oracle)
        assert_quotes_equal(second.quotes[0], oracle)

    def test_add_and_merge_clear_the_memo(self):
        losses = np.random.default_rng(7).random((2, 8))
        accumulator = ResultAccumulator(2, 8)
        accumulator.add(PartialResult(TrialRange(0, 8), losses))
        metrics, computed = accumulator.risk_metrics()
        assert computed == 2 and accumulator.risk_metrics() == (metrics, 0)
        # An empty block changes no losses, yet any add or merge recomputes.
        accumulator.add(PartialResult(TrialRange(8, 8), np.empty((2, 0))))
        assert accumulator.risk_metrics() == (metrics, 2)
        other = ResultAccumulator(2, 8).add(PartialResult(TrialRange(0, 0), np.empty((2, 0))))
        accumulator.merge(other)
        assert accumulator.risk_metrics() == (metrics, 2)

    def test_concurrent_exact_quotes_agree(self, tiny_workload):
        program = tiny_workload.program
        served, errors = [], []
        with self.service(tiny_workload) as service:
            service.submit(run_request("base", quote=False))  # entry, no memo

            def quote_five_times():
                try:
                    for _ in range(5):
                        response = service.submit(run_request("base"))
                        served.append((response.result_cache["quoted_rows"], response.quotes[0]))
                except Exception as exc:  # surfaced by the assertion below
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=quote_five_times) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(served) == 20
        # A racing thread may compute the memo too, but at most once each.
        counts = [quoted_rows for quoted_rows, _ in served]
        assert set(counts) <= {0, program.n_layers}
        assert program.n_layers <= sum(counts) <= 4 * program.n_layers
        oracle = cold_quote(program, tiny_workload.yet)
        for _, quote in served:
            assert_quotes_equal(quote, oracle)


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
        assert batched.quotes[0].uncertainty
