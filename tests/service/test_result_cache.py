"""Tests for the delta-aware ResultCache and its RiskService serving paths.

The load-bearing claims pinned here:

* an exact repeat is served without any kernel pass;
* an append-trials delta prices only the appended range and the merged
  result is **bit-identical** to a cold monolithic run — on every backend;
* a single-layer delta re-prices only the changed stack rows, composed
  bit-identically to a cold run of the full program;
* the on-disk tier survives a service restart and still serves exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BACKEND_NAMES, EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.results import PartialResult, ResultAccumulator
from repro.financial.terms import LayerTerms
from repro.parallel.partitioner import TrialRange
from repro.portfolio.pricing import price_program
from repro.portfolio.program import ReinsuranceProgram
from repro.service import AnalysisRequest, ResultCache, RiskService
from repro.service.digests import layer_digest, yet_digest
from repro.service.service import candidate_variants
from repro.yet.table import YearEventTable


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
def append_trials(yet: YearEventTable, n_extra: int, seed: int = 11) -> YearEventTable:
    """A YET whose first ``yet.n_trials`` trials are byte-identical to ``yet``.

    Built by concatenating freshly drawn trials onto the stored arrays, the
    way a simulation campaign extends an event set in place.
    """
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 6, size=n_extra)
    extra_ids = rng.integers(0, yet.catalog_size, size=int(lengths.sum()))
    extra_offsets = np.zeros(n_extra + 1, dtype=np.int64)
    np.cumsum(lengths, out=extra_offsets[1:])
    event_ids = np.concatenate([yet.event_ids, extra_ids])
    trial_offsets = np.concatenate(
        [yet.trial_offsets, extra_offsets[1:] + yet.n_occurrences]
    )
    timestamps = None
    if yet.timestamps is not None:
        extra_ts = np.sort(rng.random(int(lengths.sum())))
        timestamps = np.concatenate([yet.timestamps, extra_ts])
    return YearEventTable(event_ids, trial_offsets, yet.catalog_size, timestamps)


def with_scaled_layer(program: ReinsuranceProgram, row: int, scale: float = 1.5):
    """The program with one layer's occurrence retention scaled (a row delta)."""
    layers = list(program.layers)
    layer = layers[row]
    layers[row] = layer.with_terms(
        LayerTerms(
            occurrence_retention=layer.terms.occurrence_retention * scale,
            occurrence_limit=layer.terms.occurrence_limit,
            aggregate_retention=layer.terms.aggregate_retention,
            aggregate_limit=layer.terms.aggregate_limit,
        )
    )
    return ReinsuranceProgram(layers, name=program.name)


def complete_accumulator(n_rows: int, n_trials: int, fill: float) -> ResultAccumulator:
    accumulator = ResultAccumulator(n_rows, TrialRange(0, n_trials))
    accumulator.add(
        PartialResult(
            TrialRange(0, n_trials), np.full((n_rows, n_trials), fill)
        )
    )
    return accumulator


def counting_service(config: EngineConfig, **kwargs) -> tuple[RiskService, list]:
    """A RiskService whose engine records every run_plan invocation."""
    service = RiskService(config, **kwargs)
    calls: list = []
    inner = service.engine.run_plan

    def recording_run_plan(plan):
        calls.append(plan)
        return inner(plan)

    service.engine.run_plan = recording_run_plan
    return service, calls


def backend_config(backend: str) -> EngineConfig:
    return EngineConfig(backend=backend, n_workers=2 if backend == "multicore" else 1)


# --------------------------------------------------------------------- #
# ResultCache unit behaviour
# --------------------------------------------------------------------- #
class TestResultCacheUnit:
    def _yet(self, n_trials: int = 4) -> YearEventTable:
        return YearEventTable.from_trials(
            [[i % 8, (i + 3) % 8] for i in range(n_trials)], catalog_size=8
        )

    def test_exact_roundtrip_and_stats(self):
        cache = ResultCache(maxsize=4)
        yet = self._yet()
        accumulator = complete_accumulator(2, yet.n_trials, 1.0)
        cache.store(
            program_digest="p",
            yet_digest=yet_digest(yet),
            config_digest="c",
            accumulator=accumulator,
        )
        match = cache.lookup(program_digest="p", config_digest="c", yet=yet)
        assert match.status == "exact"
        assert match.accumulator is accumulator
        assert not accumulator.partials[0].losses.flags.writeable
        miss = cache.lookup(program_digest="other", config_digest="c", yet=yet)
        assert miss.status == "miss"
        stats = cache.stats
        assert (stats.exact_hits, stats.misses, stats.entries) == (1, 1, 1)

    def test_entry_key_is_content_addressed(self):
        key = ResultCache.entry_key("p", "y", "c", TrialRange(0, 4))
        assert key == ResultCache.entry_key("p", "y", "c", TrialRange(0, 4))
        assert len({
            key,
            ResultCache.entry_key("q", "y", "c", TrialRange(0, 4)),
            ResultCache.entry_key("p", "z", "c", TrialRange(0, 4)),
            ResultCache.entry_key("p", "y", "d", TrialRange(0, 4)),
            ResultCache.entry_key("p", "y", "c", TrialRange(0, 5)),
        }) == 5

    def test_append_match_exposes_only_the_gap(self):
        cache = ResultCache(maxsize=4)
        yet = self._yet(4)
        extended_yet = append_trials(yet, 3)
        cache.store(
            program_digest="p",
            yet_digest=yet_digest(yet),
            config_digest="c",
            accumulator=complete_accumulator(2, yet.n_trials, 1.0),
        )
        match = cache.lookup(program_digest="p", config_digest="c", yet=extended_yet)
        assert match.status == "append"
        assert match.accumulator.trials == TrialRange(0, extended_yet.n_trials)
        assert match.accumulator.missing_ranges() == [TrialRange(4, 7)]
        assert cache.stats.append_hits == 1

    def test_shrunk_yet_is_a_miss(self):
        cache = ResultCache(maxsize=4)
        yet = self._yet(4)
        cache.store(
            program_digest="p",
            yet_digest=yet_digest(yet),
            config_digest="c",
            accumulator=complete_accumulator(2, yet.n_trials, 1.0),
        )
        shrunk = yet.slice_trials(0, 2)
        assert cache.lookup(
            program_digest="p", config_digest="c", yet=shrunk
        ).status == "miss"

    def test_row_match_requires_a_strict_subset(self):
        cache = ResultCache(maxsize=4)
        yet = self._yet()
        cache.store(
            program_digest="p",
            yet_digest=yet_digest(yet),
            config_digest="c",
            accumulator=complete_accumulator(3, yet.n_trials, 1.0),
            row_digests=("r0", "r1", "r2"),
        )
        match = cache.lookup(
            program_digest="q",
            config_digest="c",
            yet=yet,
            row_digests=("r0", "CHANGED", "r2"),
        )
        assert match.status == "rows"
        assert match.changed_rows == (1,)
        # Every row changed: nothing reusable.
        assert cache.lookup(
            program_digest="q2", config_digest="c", yet=yet,
            row_digests=("a", "b", "d"),
        ).status == "miss"
        # Different row count: not a sibling.
        assert cache.lookup(
            program_digest="q3", config_digest="c", yet=yet,
            row_digests=("r0", "r1"),
        ).status == "miss"

    def test_config_digest_partitions_entries(self):
        cache = ResultCache(maxsize=4)
        yet = self._yet()
        cache.store(
            program_digest="p",
            yet_digest=yet_digest(yet),
            config_digest="c1",
            accumulator=complete_accumulator(2, yet.n_trials, 1.0),
        )
        assert cache.lookup(
            program_digest="p", config_digest="c2", yet=yet
        ).status == "miss"

    def test_memory_only_eviction_forgets_the_entry(self):
        cache = ResultCache(maxsize=1)
        yet_a, yet_b = self._yet(3), self._yet(5)
        for name, yet in (("a", yet_a), ("b", yet_b)):
            cache.store(
                program_digest=name,
                yet_digest=yet_digest(yet),
                config_digest="c",
                accumulator=complete_accumulator(1, yet.n_trials, 2.0),
            )
        stats = cache.stats
        assert stats.evictions == 1 and stats.entries == 1
        assert cache.lookup(
            program_digest="a", config_digest="c", yet=yet_a
        ).status == "miss"
        assert cache.lookup(
            program_digest="b", config_digest="c", yet=yet_b
        ).status == "exact"

    def test_disk_backed_eviction_still_serves(self, tmp_path):
        cache = ResultCache(maxsize=1, disk_dir=tmp_path)
        yet_a, yet_b = self._yet(3), self._yet(5)
        for name, yet in (("a", yet_a), ("b", yet_b)):
            cache.store(
                program_digest=name,
                yet_digest=yet_digest(yet),
                config_digest="c",
                accumulator=complete_accumulator(1, yet.n_trials, 3.0),
            )
        match = cache.lookup(program_digest="a", config_digest="c", yet=yet_a)
        assert match.status == "exact"
        np.testing.assert_array_equal(
            match.accumulator.year_losses(), np.full((1, 3), 3.0)
        )
        assert cache.stats.disk_loads == 1

    def test_disk_tier_survives_a_new_instance(self, tmp_path):
        yet = self._yet(4)
        first = ResultCache(maxsize=2, disk_dir=tmp_path)
        first.store(
            program_digest="p",
            yet_digest=yet_digest(yet),
            config_digest="c",
            accumulator=complete_accumulator(2, yet.n_trials, 4.5),
            row_digests=("r0", "r1"),
        )
        reborn = ResultCache(maxsize=2, disk_dir=tmp_path)
        assert reborn.stats.disk_entries == 1
        match = reborn.lookup(program_digest="p", config_digest="c", yet=yet)
        assert match.status == "exact"
        assert not match.accumulator.partials[0].losses.flags.writeable
        np.testing.assert_array_equal(
            match.accumulator.year_losses(), np.full((2, 4), 4.5)
        )
        # Row digests persisted too: a sibling row delta still matches.
        sibling = reborn.lookup(
            program_digest="q", config_digest="c", yet=yet,
            row_digests=("r0", "CHANGED"),
        )
        assert sibling.status == "rows" and sibling.changed_rows == (1,)

    def test_eviction_repoints_latest_to_surviving_entry(self):
        """Evicting the deepest entry must not orphan the append index.

        Regression: ``_deindex`` dropped ``_latest`` with no fallback, so
        after the deepest (program, config) entry was evicted every later
        append-trials lookup degraded to a full miss even though an older
        complete entry still survived in the cache.
        """
        cache = ResultCache(maxsize=2)
        yet_base = self._yet(4)
        yet_extended = append_trials(yet_base, 3)
        cache.store(
            program_digest="p",
            yet_digest=yet_digest(yet_base),
            config_digest="c",
            accumulator=complete_accumulator(2, yet_base.n_trials, 1.0),
        )
        cache.store(
            program_digest="p",
            yet_digest=yet_digest(yet_extended),
            config_digest="c",
            accumulator=complete_accumulator(2, yet_extended.n_trials, 2.0),
        )
        # Touch the base so the deeper entry is the LRU eviction victim...
        assert cache.lookup(
            program_digest="p", config_digest="c", yet=yet_base
        ).status == "exact"
        # ...then push an unrelated entry in to evict it.
        other = self._yet(5)
        cache.store(
            program_digest="other",
            yet_digest=yet_digest(other),
            config_digest="c",
            accumulator=complete_accumulator(1, other.n_trials, 3.0),
        )
        assert cache.stats.evictions == 1
        # The extended YET still gets an append hit off the surviving base.
        match = cache.lookup(
            program_digest="p", config_digest="c", yet=yet_extended
        )
        assert match.status == "append"
        assert match.accumulator.missing_ranges() == [
            TrialRange(yet_base.n_trials, yet_extended.n_trials)
        ]

    def test_evicting_the_only_entry_clears_the_index(self):
        """When nothing survives, the append index entry must go away too."""
        cache = ResultCache(maxsize=1)
        yet = self._yet(4)
        cache.store(
            program_digest="p",
            yet_digest=yet_digest(yet),
            config_digest="c",
            accumulator=complete_accumulator(1, yet.n_trials, 1.0),
        )
        cache.store(
            program_digest="q",
            yet_digest=yet_digest(yet),
            config_digest="c",
            accumulator=complete_accumulator(1, yet.n_trials, 2.0),
        )
        extended = append_trials(yet, 2)
        assert cache.lookup(
            program_digest="p", config_digest="c", yet=extended
        ).status == "miss"

    def test_incomplete_accumulator_rejected(self):
        cache = ResultCache(maxsize=2)
        incomplete = ResultAccumulator(1, TrialRange(0, 4))
        incomplete.add(PartialResult(TrialRange(0, 2), np.zeros((1, 2))))
        with pytest.raises(ValueError, match="complete"):
            cache.store(
                program_digest="p",
                yet_digest="y",
                config_digest="c",
                accumulator=incomplete,
            )

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(maxsize=0)


# --------------------------------------------------------------------- #
# RiskService serving paths
# --------------------------------------------------------------------- #
class TestServiceResultCache:
    def test_disabled_by_default(self, tiny_workload):
        with RiskService(EngineConfig(backend="vectorized")) as service:
            service.register_workload("w", tiny_workload)
            response = service.submit({"kind": "run", "program": "w"})
            assert service.result_cache is None
            assert response.result_cache is None

    def test_exact_repeat_skips_the_kernel_pass(self, tiny_workload):
        service, calls = counting_service(
            EngineConfig(backend="vectorized"), result_cache=True
        )
        with service:
            service.register_workload("w", tiny_workload)
            cold = service.submit({"kind": "run", "program": "w"})
            assert cold.result_cache["status"] == "miss"
            cold_calls = len(calls)
            warm = service.submit({"kind": "run", "program": "w"})
            assert warm.result_cache["status"] == "exact"
            assert len(calls) == cold_calls  # no engine pass at all
            np.testing.assert_array_equal(
                warm.result.ylt.losses, cold.result.ylt.losses
            )
            assert warm.result_cache["stats"]["exact_hits"] == 1

    def test_per_request_opt_out(self, tiny_workload):
        service, calls = counting_service(
            EngineConfig(backend="vectorized"), result_cache=True
        )
        with service:
            service.register_workload("w", tiny_workload)
            service.submit({"kind": "run", "program": "w"})
            bypass = service.submit(
                {"kind": "run", "program": "w", "result_cache": False}
            )
            assert bypass.result_cache is None
            assert len(calls) == 2  # the opt-out request ran the kernels again
            assert service.result_cache.stats.exact_hits == 0

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_append_delta_bit_identical_to_cold(self, tiny_workload, backend):
        """The headline invariant, on every backend: warm append == cold run."""
        config = backend_config(backend)
        extended_yet = append_trials(tiny_workload.yet, 48)

        with RiskService(config, result_cache=True) as warm:
            warm.register_program("w", tiny_workload.program)
            warm.register_yet("w", tiny_workload.yet)
            warm.submit({"kind": "run", "program": "w"})
            warm.register_yet("w", extended_yet)
            delta = warm.submit({"kind": "run", "program": "w"})
        assert delta.result_cache["status"] == "append"
        assert delta.result_cache["repriced_trials"] == 48
        assert delta.result_cache["cached_trials"] == tiny_workload.yet.n_trials

        with RiskService(config) as cold_service:
            cold_service.register_program("w", tiny_workload.program)
            cold_service.register_yet("w", extended_yet)
            cold = cold_service.submit({"kind": "run", "program": "w"})

        np.testing.assert_array_equal(delta.result.ylt.losses, cold.result.ylt.losses)
        warm_occ = delta.result.ylt.max_occurrence_losses
        cold_occ = cold.result.ylt.max_occurrence_losses
        assert (warm_occ is None) == (cold_occ is None)
        if warm_occ is not None:
            np.testing.assert_array_equal(warm_occ, cold_occ)

    def test_append_delta_prices_only_the_gap(self, tiny_workload):
        service, calls = counting_service(
            EngineConfig(backend="vectorized"), result_cache=True
        )
        extended_yet = append_trials(tiny_workload.yet, 32)
        with service:
            service.register_program("w", tiny_workload.program)
            service.register_yet("w", tiny_workload.yet)
            service.submit({"kind": "run", "program": "w"})
            calls.clear()
            service.register_yet("w", extended_yet)
            service.submit({"kind": "run", "program": "w"})
            assert len(calls) == 1
            assert calls[0].trials == TrialRange(
                tiny_workload.yet.n_trials, extended_yet.n_trials
            )

    def test_repeated_appends_accumulate(self, tiny_workload):
        """Extend twice: each delta prices its own gap; results stay exact."""
        config = EngineConfig(backend="vectorized")
        once = append_trials(tiny_workload.yet, 16, seed=3)
        twice = append_trials(once, 16, seed=4)
        with RiskService(config, result_cache=True) as service:
            service.register_program("w", tiny_workload.program)
            for yet in (tiny_workload.yet, once, twice):
                service.register_yet("w", yet)
                response = service.submit({"kind": "run", "program": "w"})
        assert response.result_cache["status"] == "append"
        with RiskService(config) as cold_service:
            cold_service.register_program("w", tiny_workload.program)
            cold_service.register_yet("w", twice)
            cold = cold_service.submit({"kind": "run", "program": "w"})
        np.testing.assert_array_equal(
            response.result.ylt.losses, cold.result.ylt.losses
        )

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_row_delta_bit_identical_to_cold(self, tiny_workload, backend):
        config = backend_config(backend)
        changed_program = with_scaled_layer(tiny_workload.program, 0)

        with RiskService(config, result_cache=True) as warm:
            warm.register_program("base", tiny_workload.program)
            warm.register_yet("base", tiny_workload.yet)
            warm.submit({"kind": "run", "program": "base"})
            warm.register_program("changed", changed_program)
            warm.register_yet("changed", tiny_workload.yet)
            delta = warm.submit({"kind": "run", "program": "changed"})
        assert delta.result_cache["status"] == "rows"
        assert delta.result_cache["repriced_rows"] == [0]

        with RiskService(config) as cold_service:
            cold_service.register_program("changed", changed_program)
            cold_service.register_yet("changed", tiny_workload.yet)
            cold = cold_service.submit({"kind": "run", "program": "changed"})

        np.testing.assert_array_equal(delta.result.ylt.losses, cold.result.ylt.losses)
        warm_occ = delta.result.ylt.max_occurrence_losses
        cold_occ = cold.result.ylt.max_occurrence_losses
        assert (warm_occ is None) == (cold_occ is None)
        if warm_occ is not None:
            np.testing.assert_array_equal(warm_occ, cold_occ)

    def test_row_delta_prices_only_changed_rows(self, tiny_workload):
        service, calls = counting_service(
            EngineConfig(backend="vectorized"), result_cache=True
        )
        with service:
            service.register_program("base", tiny_workload.program)
            service.register_yet("base", tiny_workload.yet)
            service.submit({"kind": "run", "program": "base"})
            calls.clear()
            changed_program = with_scaled_layer(tiny_workload.program, 1)
            service.register_program("changed", changed_program)
            service.register_yet("changed", tiny_workload.yet)
            response = service.submit({"kind": "run", "program": "changed"})
            assert response.result_cache["status"] == "rows"
            assert len(calls) == 1
            assert calls[0].n_rows == 1  # only the changed layer was priced

    def test_row_delta_occ_mismatch_falls_back_to_full_recompute(self, tiny_workload):
        """A sibling without occurrence losses must not poison the composition.

        Regression: when the cached sibling and the delta run disagreed on
        carrying max-occurrence losses, ``_serve_row_delta`` silently set
        ``occ = None`` — a result NOT bit-identical to a cold run.  The
        mismatch must instead fall back to a full recompute, decided before
        anything is priced: one engine pass over every row, not a discarded
        row-delta pass followed by the full one.
        """
        config = EngineConfig(backend="vectorized")  # records max occurrence
        program, yet = tiny_workload.program, tiny_workload.yet
        changed_program = with_scaled_layer(program, 0)

        service, calls = counting_service(config, result_cache=True)
        with service:
            service.register_program("changed", changed_program)
            service.register_yet("changed", yet)
            # Seed an occurrence-less sibling under the base program's real
            # digests (an entry stored before occurrence tracking existed —
            # the config digest pins occurrence *settings*, not history).
            plan_key = service._program_key("run", [program], yet, 0)
            service.result_cache.store(
                program_digest=plan_key[1][0],
                yet_digest=plan_key[2],
                config_digest=f"{plan_key[3]}|shards=0",
                accumulator=complete_accumulator(program.n_layers, yet.n_trials, 0.0),
                row_digests=tuple(layer_digest(layer) for layer in program.layers),
            )
            delta = service.submit({"kind": "run", "program": "changed"})
            assert delta.result_cache["status"] == "rows_fallback"
            assert delta.result_cache["reason"] == "occurrence_mismatch"
            assert [plan.n_rows for plan in calls] == [program.n_layers]
            # The fallback stored the complete entry: a repeat serves exactly,
            # occurrence losses intact.
            repeat = service.submit({"kind": "run", "program": "changed"})
            assert repeat.result_cache["status"] == "exact"
            assert repeat.result.ylt.max_occurrence_losses is not None

        with RiskService(config) as cold_service:
            cold_service.register_program("changed", changed_program)
            cold_service.register_yet("changed", yet)
            cold = cold_service.submit({"kind": "run", "program": "changed"})

        np.testing.assert_array_equal(delta.result.ylt.losses, cold.result.ylt.losses)
        assert cold.result.ylt.max_occurrence_losses is not None
        assert delta.result.ylt.max_occurrence_losses is not None  # was dropped
        np.testing.assert_array_equal(
            delta.result.ylt.max_occurrence_losses,
            cold.result.ylt.max_occurrence_losses,
        )

    def test_sharded_request_delta_matches_sharded_cold(self, tiny_workload):
        """shards is scheduling, not semantics — but keys must still line up."""
        config = EngineConfig(backend="vectorized")
        extended_yet = append_trials(tiny_workload.yet, 24)
        with RiskService(config, result_cache=True) as warm:
            warm.register_program("w", tiny_workload.program)
            warm.register_yet("w", tiny_workload.yet)
            warm.submit({"kind": "run", "program": "w", "shards": 2})
            warm.register_yet("w", extended_yet)
            delta = warm.submit({"kind": "run", "program": "w", "shards": 2})
        assert delta.result_cache["status"] == "append"
        with RiskService(config) as cold_service:
            cold_service.register_program("w", tiny_workload.program)
            cold_service.register_yet("w", extended_yet)
            cold = cold_service.submit({"kind": "run", "program": "w", "shards": 2})
        np.testing.assert_array_equal(delta.result.ylt.losses, cold.result.ylt.losses)

    def test_disk_tier_survives_service_restart(self, tiny_workload, tmp_path):
        config = EngineConfig(backend="vectorized")
        with RiskService(config, result_cache_dir=tmp_path) as first:
            first.register_workload("w", tiny_workload)
            cold = first.submit({"kind": "run", "program": "w"})
            assert cold.result_cache["status"] == "miss"

        service, calls = counting_service(config, result_cache_dir=tmp_path)
        with service:
            service.register_workload("w", tiny_workload)
            warm = service.submit({"kind": "run", "program": "w"})
            assert warm.result_cache["status"] == "exact"
            assert calls == []  # served from disk, no kernel pass
            np.testing.assert_array_equal(
                warm.result.ylt.losses, cold.result.ylt.losses
            )

    def test_quotes_ride_the_cached_result(self, tiny_workload):
        with RiskService(
            EngineConfig(backend="vectorized"), result_cache=True
        ) as service:
            service.register_workload("w", tiny_workload)
            cold = service.submit({"kind": "run", "program": "w", "quote": True})
            warm = service.submit({"kind": "run", "program": "w", "quote": True})
        assert warm.quotes and len(warm.quotes) == len(cold.quotes)
        assert warm.quotes[0].total_premium == cold.quotes[0].total_premium

    @pytest.mark.parametrize("variants", [0, 4], ids=["run", "run_many"])
    def test_served_blocks_cannot_overwrite_the_cache(self, tiny_workload, variants):
        # An exact hit (and the miss, whose table is its single block) hands
        # out the cached arrays themselves, and a run_many's per-program
        # results are row views of them; writing through them used to make
        # every later exact hit serve the written values.
        config = EngineConfig(backend="vectorized", record_max_occurrence=True)
        document = {"kind": "run", "program": "w", "quote": True}
        programs = [tiny_workload.program]
        if variants:
            document.update(kind="run_many", variants=variants)
            programs = candidate_variants(tiny_workload.program, variants)
        with RiskService(config, result_cache=True) as service:
            service.register_workload("w", tiny_workload)
            miss = service.submit(document)
            exact = service.submit(document)
            for served in (miss, exact):
                for result in served.results:
                    for block in (result.ylt.losses, result.ylt.max_occurrence_losses):
                        with pytest.raises(ValueError, match="read-only"):
                            block[:] = 0.0
            again = service.submit(document)
        assert again.result_cache["status"] == "exact"
        engine = AggregateRiskEngine(config)
        for program, result, quote in zip(programs, again.results, again.quotes, strict=True):
            cold = engine.run(program, tiny_workload.yet)
            np.testing.assert_array_equal(result.ylt.losses, cold.ylt.losses)
            np.testing.assert_array_equal(
                result.ylt.max_occurrence_losses, cold.ylt.max_occurrence_losses
            )
            cold_quote = price_program(program, cold.ylt)
            assert [p.metrics for p in quote.layer_pricings] == [
                p.metrics for p in cold_quote.layer_pricings
            ]
