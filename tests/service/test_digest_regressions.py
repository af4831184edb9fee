"""Regression tests for the digest and plan-cache fixes behind result caching.

Three bugs are pinned here because the result cache's delta matching trusts
the digests completely:

* ``yet_digest`` ignored ``catalog_size`` and the timestamps column, so two
  semantically different YETs could share one cache key;
* ``_hexdigest`` concatenated parts without framing, so differently-split
  byte sequences (``"ab"+"c"`` vs ``"a"+"bc"``) collided;
* ``PlanCache.get_or_build`` raced: two threads missing the same key both
  ran the (expensive) builder.

Digest *values* are pinned too: they key the on-disk result cache, so hashing
arrays as buffers instead of ``tobytes()`` copies must not move a single bit.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.parallel.partitioner import TrialRange
from repro.service import RiskService, digests
from repro.service.cache import PlanCache
from repro.elt.table import EventLossTable
from repro.financial.terms import FinancialTerms, LayerTerms
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.service.digests import (
    _hexdigest,
    array_digest,
    elt_digest,
    layer_digest,
    program_digest,
    yet_digest,
    yet_prefix_digest,
)
from repro.yet.io import YetShardReader, save_yet_store, shard_count_for_budget
from repro.yet.table import YearEventTable


def _yet_with_timestamps() -> YearEventTable:
    return YearEventTable.from_trials(
        [[3, 7], [1], [2, 5, 9]],
        catalog_size=16,
        timestamps=[[0.1, 0.6], [0.4], [0.2, 0.5, 0.9]],
    )


class TestYetDigestCoverage:
    def test_catalog_width_changes_digest(self, tiny_workload):
        """Same events, wider catalog -> a different content digest."""
        yet = tiny_workload.yet
        widened = YearEventTable(
            yet.event_ids, yet.trial_offsets, yet.catalog_size * 2, yet.timestamps
        )
        assert yet_digest(yet) != yet_digest(widened)

    def test_catalog_width_changes_cache_keys(self, tiny_workload):
        """The regression as the service sees it: distinct plan-cache keys.

        Before the fix, a program priced over a re-widened YET hit the old
        plan (whose stack has the old catalog width) instead of lowering a
        new one.
        """
        yet = tiny_workload.yet
        widened = YearEventTable(
            yet.event_ids, yet.trial_offsets, yet.catalog_size * 2, yet.timestamps
        )
        with RiskService(EngineConfig(backend="vectorized")) as service:
            key = service._program_key("run", [tiny_workload.program], yet, 0)
            widened_key = service._program_key(
                "run", [tiny_workload.program], widened, 0
            )
        assert key != widened_key

    def test_timestamp_presence_changes_digest(self):
        timed = _yet_with_timestamps()
        untimed = YearEventTable(
            timed.event_ids, timed.trial_offsets, timed.catalog_size, None
        )
        assert yet_digest(timed) != yet_digest(untimed)

    def test_timestamp_bytes_change_digest(self):
        timed = _yet_with_timestamps()
        shifted_ts = timed.timestamps.copy()
        shifted_ts[0] += 0.05
        shifted = YearEventTable(
            timed.event_ids, timed.trial_offsets, timed.catalog_size, shifted_ts
        )
        assert yet_digest(timed) != yet_digest(shifted)

    def test_digest_is_content_addressed(self):
        a = _yet_with_timestamps()
        b = _yet_with_timestamps()
        assert a is not b
        assert yet_digest(a) == yet_digest(b)


class TestYetPrefixDigest:
    def test_prefix_digest_matches_sliced_table(self):
        yet = _yet_with_timestamps()
        for n in range(yet.n_trials + 1):
            if n == 0:
                continue  # slice_trials allows it but a 0-trial YET is degenerate
            assert yet_prefix_digest(yet, n) == yet_digest(yet.slice_trials(0, n))

    def test_full_length_prefix_is_the_digest(self, tiny_workload):
        yet = tiny_workload.yet
        assert yet_prefix_digest(yet, yet.n_trials) == yet_digest(yet)

    def test_out_of_range_prefix_rejected(self, tiny_workload):
        yet = tiny_workload.yet
        with pytest.raises(ValueError):
            yet_prefix_digest(yet, yet.n_trials + 1)
        with pytest.raises(ValueError):
            yet_prefix_digest(yet, -1)


class TestHexdigestFraming:
    def test_part_boundaries_are_framed(self):
        """The canonical framing collision: "ab"+"c" must differ from "a"+"bc"."""
        assert _hexdigest([b"ab", b"c"]) != _hexdigest([b"a", b"bc"])

    def test_empty_parts_are_significant(self):
        assert _hexdigest([b"x", b""]) != _hexdigest([b"x"])

    def test_deterministic(self):
        assert _hexdigest([b"a", b"bc"]) == _hexdigest([b"a", b"bc"])


class TestDigestValuesArePinned:
    """Hex strings recorded at commit 889ed6b (``tobytes()``-based hashing)."""

    def test_elt_and_program_digests(self):
        elt = EventLossTable(
            np.array([5, 1, 3]), np.array([10.0, 2.5, 7.25]), catalog_size=8,
            terms=FinancialTerms(retention=1.0, limit=50.0, share=0.5, fx_rate=1.25),
            name="x",
        )
        empty = EventLossTable(np.array([], dtype=np.int64), np.array([]), catalog_size=8,
                               name="e")
        terms = LayerTerms(occurrence_retention=1.0, occurrence_limit=20.0,
                           aggregate_retention=0.5, aggregate_limit=40.0)
        program = ReinsuranceProgram([Layer([elt, empty], terms, name="L")], name="P")
        assert elt_digest(elt) == (
            "329cb4184c02572c1c5f3eb559ffa4dcbb86f8b82623d13abdc8864d65be0277")
        assert elt_digest(empty) == (
            "bbac2bc2471572ca53808974835f5f9f57711d5a92001c5b08f06a93500d5d5e")
        assert program_digest(program) == (
            "00618a26bddef70ed47a990067422dbe5866ccb5faef26ccae4cee802f39dc1c")

    def test_yet_digests(self):
        stamped = YearEventTable.from_trials(
            [[3, 7], [1], [2, 5]], catalog_size=8,
            timestamps=[[0.1, 0.6], [0.4], [0.2, 0.5]],
        )
        plain = YearEventTable.from_trials([[3, 7], [], [2, 5]], catalog_size=8)
        assert yet_digest(stamped) == (
            "424697160cb188b9721dcc5a99011f81c50be4cce8b2f9fc40a8679eeb535d95")
        assert yet_digest(plain) == (
            "216238639c197a792ac5e1f247f82c649ef35a30a0f7678f648c52d18d0d4e97")
        assert yet_prefix_digest(stamped, 2) == (
            "b88a67b708e4eb1e60a24fae5b22f00d2c0c1da200fa3bfec6151fe776fd7558")

    def test_array_digests_contiguous_strided_and_empty(self):
        grid = np.arange(12.0).reshape(3, 4)
        assert array_digest(grid) == (
            "be57a868482d5edd03858704034894a0f3630604c7e05093b094cb3d54eea058")
        assert array_digest(grid[:, ::2]) == (
            "18b8a97ed9c715f0b28e650f1bdfe80ac3dda6d6e459123625f8c7f7c102c0a5")
        assert array_digest(np.zeros((0, 3))) == (
            "973b085e884d4399ce0611fbeab904ce03426a0ee319863ffe52f91db7426c5c")
        assert array_digest(np.arange(4, dtype=np.int32)) == (
            "399afb7139c338830324dc299fc6893d471b9c071345ec0e9659db5f4a81ff57")

    def test_array_parts_hash_like_their_bytes(self):
        strided = np.arange(12.0).reshape(3, 4)[:, ::2]
        assert _hexdigest([b"a", strided]) == _hexdigest([b"a", strided.tobytes()])


class TestWarmRequestsFrameNothing:
    """Layer and program digests are memoised per object, like ELTs and YETs."""

    def test_second_submit_reframes_no_digest(self, tiny_workload, monkeypatch):
        # Fresh objects: the session-scoped workload may already be memoised.
        program = ReinsuranceProgram(
            [Layer(layer.elts, layer.terms, name=layer.name) for layer in tiny_workload.program],
            name="fresh",
        )
        service = RiskService(result_cache=True)
        service.register_program("book", program)
        service.register_yet("yet", tiny_workload.yet)
        request = {"kind": "run", "program": "book", "yet": "yet", "quote": True}

        framed = []
        real = digests._hexdigest

        def spy(parts):
            parts = tuple(parts)
            framed.append(parts[0])
            return real(parts)

        monkeypatch.setattr(digests, "_hexdigest", spy)
        try:
            first = service.submit(dict(request))
            assert b"layer" in framed and b"program" in framed  # the spy sees framing
            del framed[:]
            second = service.submit(dict(request))
        finally:
            service.close()
        assert second.result_cache["status"] == "exact"
        assert not {b"elt", b"yet", b"layer", b"program", b"config"} & set(framed)
        assert np.array_equal(first.result.ylt.losses, second.result.ylt.losses)

    def test_memoised_digest_is_the_content_digest(self, tiny_workload):
        layer = tiny_workload.program.layers[0]
        twin = Layer(layer.elts, layer.terms, name=layer.name)
        assert layer_digest(twin) == layer_digest(twin) == layer_digest(layer)
        retermed = layer.with_terms(LayerTerms(occurrence_retention=123.0))
        assert layer_digest(retermed) != layer_digest(layer)
        assert program_digest(ReinsuranceProgram([twin], name="a")) != program_digest(
            ReinsuranceProgram([twin], name="b"))

    def test_digested_attributes_are_read_only(self, tiny_workload):
        """What makes the memo sound: nothing digested can be reassigned."""
        program = tiny_workload.program
        layer = program.layers[0]
        for owner, attribute, value in (
            (layer, "terms", LayerTerms()),
            (layer, "elts", layer.elts[:1]),
            (layer, "name", "renamed"),
            (program, "layers", program.layers[:1]),
            (program, "name", "renamed"),
        ):
            with pytest.raises(AttributeError):
                setattr(owner, attribute, value)


class TestPlanCacheBuildRace:
    def test_concurrent_get_or_build_runs_builder_once(self):
        """Two threads racing one cold key must share a single build."""
        cache = PlanCache(4)
        barrier = threading.Barrier(2)
        builds: list[int] = []
        results: list[object] = []

        def builder():
            builds.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return object()

        def worker():
            barrier.wait()
            plan, _ = cache.get_or_build("key", builder)
            results.append(plan)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1
        assert results[0] is results[1]

    def test_failed_build_releases_the_key(self):
        cache = PlanCache(4)

        with pytest.raises(RuntimeError):
            cache.get_or_build("key", self._raise)
        # The per-key build lock must not leak; a retry builds normally.
        plan, hit = cache.get_or_build("key", object)
        assert not hit
        assert plan is not None
        assert cache._build_locks == {}

    @staticmethod
    def _raise():
        raise RuntimeError("builder exploded")

    def test_len_and_contains_are_consistent(self):
        cache = PlanCache(2)
        cache.put("a", object())
        assert len(cache) == 1
        assert "a" in cache
        assert "b" not in cache

    def test_peek_does_not_touch_stats_or_order(self):
        cache = PlanCache(2)
        cache.put("a", object())
        cache.put("b", object())
        before = cache.stats
        assert cache.peek("a") is not None
        assert cache.peek("missing") is None
        after = cache.stats
        assert (after.hits, after.misses) == (before.hits, before.misses)
        cache.put("c", object())  # evicts the LRU entry: "a" (peek kept order)
        assert "a" not in cache and "b" in cache and "c" in cache


class TestShardReaderBounds:
    def test_stop_at_n_trials_is_accepted(self, tiny_workload, tmp_path):
        store = save_yet_store(tiny_workload.yet, tmp_path / "store")
        with YetShardReader(store) as reader:
            full = reader.shard(TrialRange(0, reader.n_trials))
            assert full.n_trials == tiny_workload.yet.n_trials
            np.testing.assert_array_equal(full.event_ids, tiny_workload.yet.event_ids)

    def test_error_message_reports_inclusive_stop_bound(self, tiny_workload, tmp_path):
        store = save_yet_store(tiny_workload.yet, tmp_path / "store")
        with YetShardReader(store) as reader:
            with pytest.raises(IndexError, match=r"<= stop <= "):
                reader.shard(TrialRange(0, reader.n_trials + 1))
            # The old message claimed [0, n_trials), which shard() never enforced.
            with pytest.raises(IndexError) as excinfo:
                reader.shard(TrialRange(0, reader.n_trials + 1))
            assert f"[0, {reader.n_trials})" not in str(excinfo.value)


class TestShardCountForBudget:
    def test_ceil_division(self):
        assert shard_count_for_budget(1000, 250) == 4
        assert shard_count_for_budget(1001, 250) == 5
        assert shard_count_for_budget(1, 250) == 1

    def test_empty_table_is_one_shard(self):
        assert shard_count_for_budget(0, 64) == 1

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            shard_count_for_budget(1000, 0)

    def test_reader_delegates_to_the_helper(self, tiny_workload, tmp_path):
        store = save_yet_store(tiny_workload.yet, tmp_path / "store")
        with YetShardReader(store) as reader:
            for budget in (64, 1024, 10**9):
                assert reader.shard_count_for_budget(budget) == (
                    shard_count_for_budget(reader.event_bytes, budget)
                )

    def test_engine_sharding_matches_the_helper(self, tiny_workload):
        """run_sharded's byte-budget branch must use the same arithmetic."""
        from repro.core.engine import AggregateRiskEngine

        engine = AggregateRiskEngine(EngineConfig(backend="vectorized"))
        budget = max(tiny_workload.yet.event_bytes // 3, 1)
        result = engine.run_sharded(
            tiny_workload.program, tiny_workload.yet, max_shard_bytes=budget
        )
        expected = shard_count_for_budget(tiny_workload.yet.event_bytes, budget)
        assert result.details["trial_shards"] == min(
            expected, tiny_workload.yet.n_trials
        )
