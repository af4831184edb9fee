"""Tests for the content digests and the PlanCache LRU."""

import pytest

from repro.core.config import EngineConfig
from repro.core.plan import PlanBuilder
from repro.financial.terms import LayerTerms
from repro.portfolio.layer import Layer
from repro.service.cache import PlanCache
from repro.service.digests import (
    PLAN_RELEVANT_CONFIG_FIELDS,
    config_digest,
    program_digest,
    yet_digest,
)


class TestDigests:
    def test_program_digest_deterministic(self, tiny_workload):
        assert program_digest(tiny_workload.program) == program_digest(
            tiny_workload.program
        )

    def test_program_digest_content_addressed(self, tiny_workload):
        """Two distinct objects with the same content share one digest."""
        program = tiny_workload.program
        clone = Layer(program.layers[0].elts, program.layers[0].terms,
                      name=program.layers[0].name)
        assert program_digest(clone) != ""
        rebuilt = type(program)(
            [Layer(l.elts, l.terms, name=l.name) for l in program.layers],
            name=program.name,
        )
        assert program_digest(rebuilt) == program_digest(program)

    def test_term_change_changes_digest(self, tiny_workload):
        layer = tiny_workload.program.layers[0]
        variant = layer.with_terms(LayerTerms(occurrence_retention=12345.0))
        assert program_digest(layer) != program_digest(variant)

    def test_elt_content_change_changes_digest(self, tiny_workload):
        from repro.elt.table import EventLossTable

        layer = tiny_workload.program.layers[0]
        elt = layer.elts[0]
        bumped = EventLossTable(
            elt.event_ids, elt.losses * 1.01, catalog_size=elt.catalog_size,
            terms=elt.terms,
        )
        mutated = Layer([bumped, *layer.elts[1:]], layer.terms, name=layer.name)
        assert program_digest(layer) != program_digest(mutated)

    def test_yet_digest_memoized_and_stable(self, tiny_workload):
        first = yet_digest(tiny_workload.yet)
        assert yet_digest(tiny_workload.yet) == first

    def test_config_digest_ignores_irrelevant_fields(self):
        assert config_digest(EngineConfig()) == config_digest(
            EngineConfig(record_phases=True)
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(backend="chunked"),
            dict(fused_layers=False),
            dict(trial_shards=4),
            dict(record_max_occurrence=False),
            dict(chunk_events=999),
            dict(n_workers=3),
            dict(oversubscription=3),
        ],
    )
    def test_config_digest_tracks_relevant_fields(self, overrides):
        assert config_digest(EngineConfig()) != config_digest(
            EngineConfig(**overrides)
        )

    def test_relevant_fields_exist_on_config(self):
        config = EngineConfig()
        for name in PLAN_RELEVANT_CONFIG_FIELDS:
            getattr(config, name)


class TestPlanCache:
    def _plan(self, workload):
        return PlanBuilder.from_program(workload.program, workload.yet)

    def test_miss_then_hit(self, tiny_workload):
        cache = PlanCache(maxsize=4)
        plan = self._plan(tiny_workload)
        assert cache.get("k") is None
        cache.put("k", plan)
        assert cache.get("k") is plan
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)

    def test_get_or_build(self, tiny_workload):
        cache = PlanCache(maxsize=4)
        built = []

        def builder():
            built.append(True)
            return self._plan(tiny_workload)

        plan, hit = cache.get_or_build("k", builder)
        assert not hit and len(built) == 1
        again, hit = cache.get_or_build("k", builder)
        assert hit and again is plan and len(built) == 1

    def test_lru_eviction_order(self, tiny_workload):
        cache = PlanCache(maxsize=2)
        plan = self._plan(tiny_workload)
        cache.put("a", plan)
        cache.put("b", plan)
        assert cache.get("a") is plan  # refresh "a": "b" becomes the LRU
        cache.put("c", plan)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_clear_keeps_stats(self, tiny_workload):
        cache = PlanCache(maxsize=2)
        cache.put("a", self._plan(tiny_workload))
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError, match="maxsize"):
            PlanCache(maxsize=0)

    def test_hit_rate(self):
        cache = PlanCache()
        assert cache.stats.hit_rate == 0.0
        cache.get("missing")
        assert cache.stats.hit_rate == 0.0
        assert "plan-cache" in cache.stats.summary()
