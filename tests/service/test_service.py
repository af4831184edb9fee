"""Tests for the RiskService: dispatch, caching, warm-path identity, shm."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.config import BACKEND_NAMES, EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.financial.terms import LayerTerms
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.service import (
    AnalysisRequest,
    RequestValidationError,
    RiskService,
)

SHM_DIR = Path("/dev/shm")


def _shm_entries() -> set:
    """Names of the POSIX shared-memory segments currently alive."""
    if not SHM_DIR.exists():  # pragma: no cover - non-Linux fallback
        return set()
    return {p.name for p in SHM_DIR.iterdir() if p.name.startswith("psm_")}


@pytest.fixture()
def service(tiny_workload):
    with RiskService(EngineConfig()) as svc:
        svc.register_workload("tiny", tiny_workload)
        yield svc


class TestDispatch:
    def test_run_result_matches_engine(self, service, tiny_workload):
        response = service.submit({"kind": "run", "program": "tiny"})
        direct = AggregateRiskEngine(EngineConfig()).run(
            tiny_workload.program, tiny_workload.yet
        )
        np.testing.assert_array_equal(response.result.ylt.losses, direct.ylt.losses)
        assert response.kind == "run"
        assert response.backend == "vectorized"
        assert set(response.timings) >= {"lower", "execute", "total"}

    def test_accepts_request_dict_json_and_object(self, service):
        request = AnalysisRequest(kind="run", program="tiny")
        by_object = service.submit(request)
        by_dict = service.submit({"kind": "run", "program": "tiny"})
        by_json = service.submit('{"kind": "run", "program": "tiny"}')
        for response in (by_dict, by_json):
            np.testing.assert_array_equal(
                response.result.ylt.losses, by_object.result.ylt.losses
            )

    def test_run_many_variants_match_engine_run_many(self, service, tiny_workload):
        from repro.service.service import candidate_variants

        response = service.submit(
            {"kind": "run_many", "program": "tiny", "variants": 3}
        )
        assert len(response.results) == 3 == len(response.quotes)
        variants = candidate_variants(tiny_workload.program, 3)
        direct = AggregateRiskEngine(EngineConfig()).run_many(
            variants, tiny_workload.yet
        )
        for got, want in zip(response.results, direct):
            np.testing.assert_array_equal(got.ylt.losses, want.ylt.losses)

    def test_run_many_explicit_names(self, service, tiny_workload):
        service.register_program("other", tiny_workload.program)
        response = service.submit(
            {"kind": "run_many", "programs": ["tiny", "other"], "yet": "tiny"}
        )
        assert len(response.results) == 2
        np.testing.assert_array_equal(
            response.results[0].ylt.losses, response.results[1].ylt.losses
        )

    def test_run_stacked_matches_engine(self, service, tiny_workload):
        program = tiny_workload.program
        stack = np.stack(
            [layer.loss_matrix().combined_net_losses() for layer in program.layers]
        )
        terms = [layer.terms for layer in program.layers]
        service.register_stack("rows", stack, terms)
        response = service.submit(
            {"kind": "run_stacked", "stack": "rows", "yet": "tiny"}
        )
        direct = AggregateRiskEngine(EngineConfig()).run_stacked(
            stack, terms, tiny_workload.yet
        )
        np.testing.assert_array_equal(response.result.ylt.losses, direct.ylt.losses)

    def test_sweep_matches_run_many_quotes(self, service):
        swept = service.submit(
            {"kind": "sweep", "program": "tiny", "variants": 4, "max_rows_per_block": 4}
        )
        batched = service.submit(
            {"kind": "run_many", "program": "tiny", "variants": 4}
        )
        assert [q.summary() for q in swept.quotes] == [
            q.summary() for q in batched.quotes
        ]
        assert len(swept.details["blocks"]) == 2

    def test_uncertainty_bands_and_quote(self, service):
        response = service.submit(
            {"kind": "uncertainty", "program": "tiny", "replications": 4, "seed": 5}
        )
        assert "aal" in response.bands
        assert response.quotes[0].has_uncertainty
        repeat = service.submit(
            {"kind": "uncertainty", "program": "tiny", "replications": 4, "seed": 5}
        )
        np.testing.assert_array_equal(
            response.bands["aal"].values, repeat.bands["aal"].values
        )

    def test_preset_fallback_without_registration(self):
        with RiskService(EngineConfig()) as svc:
            response = svc.submit({"kind": "run", "program": "tiny"})
            assert response.result.ylt.n_layers == 2

    def test_quote_flag_off(self, service):
        response = service.submit(
            {"kind": "run", "program": "tiny", "quote": False}
        )
        assert response.quotes == ()

    def test_sweep_quote_flag_off_skips_pricing(self, service, monkeypatch):
        import repro.portfolio.sweep as sweep_module

        def exploding_price(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pricing must be skipped when quote=false")

        monkeypatch.setattr(sweep_module, "price_program", exploding_price)
        response = service.submit(
            {"kind": "sweep", "program": "tiny", "variants": 3, "quote": False}
        )
        assert response.quotes == ()
        assert len(response.results) == 3

    def test_preset_workload_memo_bounded(self):
        with RiskService(EngineConfig()) as svc:
            for seed in range(12):
                svc.submit({"kind": "run", "program": "tiny", "seed": seed})
            assert len(svc._preset_workloads) <= svc._max_preset_workloads

    def test_tags_echoed(self, service):
        response = service.submit(
            {"kind": "run", "program": "tiny", "tags": {"ticket": "RISK-17"}}
        )
        assert response.to_dict()["tags"] == {"ticket": "RISK-17"}

    def test_response_to_dict_json_compatible(self, service):
        import json

        response = service.submit({"kind": "run", "program": "tiny"})
        json.dumps(response.to_dict())


class TestRegistryErrors:
    def test_unknown_program(self, service):
        with pytest.raises(RequestValidationError, match="unknown program"):
            service.submit({"kind": "run", "program": "nope"})

    def test_unknown_stack(self, service):
        with pytest.raises(RequestValidationError, match="unknown stack"):
            service.submit({"kind": "run_stacked", "stack": "nope", "yet": "tiny"})

    def test_unknown_yet(self, service):
        with pytest.raises(RequestValidationError, match="unknown YET"):
            service.submit({"kind": "run", "program": "tiny", "yet": "nope"})

    def test_program_without_companion_yet(self, service, tiny_workload):
        service.register_program("orphan", tiny_workload.program)
        with pytest.raises(RequestValidationError, match="names no YET"):
            service.submit({"kind": "run", "program": "orphan"})


class TestPlanCacheBehaviour:
    def test_cold_then_warm(self, service):
        cold = service.submit({"kind": "run", "program": "tiny"})
        warm = service.submit({"kind": "run", "program": "tiny"})
        assert cold.cache.hit is False
        assert warm.cache.hit is True
        assert service.cache_stats().hits >= 1

    def test_program_content_change_invalidates(self, service, tiny_workload):
        service.submit({"kind": "run", "program": "tiny"})
        reshaped = ReinsuranceProgram(
            [
                layer.with_terms(LayerTerms(occurrence_retention=99_999.0))
                for layer in tiny_workload.program.layers
            ],
            name=tiny_workload.program.name,
        )
        service.register_program("tiny", reshaped)
        response = service.submit({"kind": "run", "program": "tiny"})
        assert response.cache.hit is False

    def test_content_addressing_across_objects(self, service, tiny_workload):
        """A rebuilt program with identical content hits the warm plan."""
        service.submit({"kind": "run", "program": "tiny"})
        rebuilt = ReinsuranceProgram(
            [
                Layer(layer.elts, layer.terms, name=layer.name)
                for layer in tiny_workload.program.layers
            ],
            name=tiny_workload.program.name,
        )
        service.register_program("tiny", rebuilt)
        response = service.submit({"kind": "run", "program": "tiny"})
        assert response.cache.hit is True

    def test_config_change_means_different_key(self, tiny_workload):
        with RiskService(EngineConfig()) as first:
            first.register_workload("tiny", tiny_workload)
            first.submit({"kind": "run", "program": "tiny"})
            key_a = first.submit({"kind": "run", "program": "tiny"}).cache.key
        with RiskService(EngineConfig(chunk_events=4096)) as second:
            second.register_workload("tiny", tiny_workload)
            response = second.submit({"kind": "run", "program": "tiny"})
            assert response.cache.hit is False
            assert response.cache.key == key_a  # key prefix is the program digest

    def test_dedupe_flag_is_part_of_the_key(self, service):
        service.submit({"kind": "run_many", "program": "tiny", "variants": 2})
        flipped = service.submit(
            {"kind": "run_many", "program": "tiny", "variants": 2, "dedupe": False}
        )
        assert flipped.cache.hit is False

    def test_sweep_warm_second_pass(self, service):
        service.submit(
            {"kind": "sweep", "program": "tiny", "variants": 4, "max_rows_per_block": 4}
        )
        warm = service.submit(
            {"kind": "sweep", "program": "tiny", "variants": 4, "max_rows_per_block": 4}
        )
        assert warm.cache.hit is True
        assert warm.cache.hits == 2  # one lookup per block

    def test_uncertainty_expected_plan_warms(self, service):
        cold = service.submit(
            {"kind": "uncertainty", "program": "tiny", "replications": 3, "seed": 1}
        )
        warm = service.submit(
            {"kind": "uncertainty", "program": "tiny", "replications": 3, "seed": 1}
        )
        assert cold.cache.hit is False
        assert warm.cache.hit is True


class TestWarmVsColdIdentity:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_warm_request_bit_identical_to_cold(self, tiny_workload, backend):
        """The cache may change latency, never a single output bit."""
        config = EngineConfig(
            backend=backend,
            n_workers=2 if backend == "multicore" else 1,
        )
        with RiskService(config) as svc:
            svc.register_workload("tiny", tiny_workload)
            cold = svc.submit({"kind": "run", "program": "tiny"})
            warm = svc.submit({"kind": "run", "program": "tiny"})
            assert cold.cache.hit is False and warm.cache.hit is True
            assert np.array_equal(
                cold.result.ylt.losses, warm.result.ylt.losses
            )
            cold_max = cold.result.ylt.max_occurrence_losses
            warm_max = warm.result.ylt.max_occurrence_losses
            assert np.array_equal(cold_max, warm_max)

        # A brand-new cold service reproduces both exactly.
        with RiskService(config) as fresh:
            fresh.register_workload("tiny", tiny_workload)
            again = fresh.submit({"kind": "run", "program": "tiny"})
            assert np.array_equal(
                again.result.ylt.losses, cold.result.ylt.losses
            )


@pytest.mark.usefixtures("publish_under_fork")
class TestSharedWorkspaceReuse:
    def test_workspace_reused_and_shm_clean(self, tiny_workload):
        before = _shm_entries()
        config = EngineConfig(backend="multicore", n_workers=2)
        with RiskService(config) as svc:
            svc.register_workload("tiny", tiny_workload)
            cold = svc.submit({"kind": "run", "program": "tiny"})
            warm = svc.submit({"kind": "run", "program": "tiny"})
            assert cold.result.details["shared_memory"] is True
            assert cold.result.details["workspace_reused"] is False
            assert warm.result.details["workspace_reused"] is True
            np.testing.assert_array_equal(
                cold.result.ylt.losses, warm.result.ylt.losses
            )
            # The retained workspace is alive between requests...
            assert len(_shm_entries()) >= len(before)
        # ...and close() (via the context manager) frees every segment.
        assert _shm_entries() - before == set()

    def test_release_workspaces_idempotent(self, tiny_workload):
        config = EngineConfig(backend="multicore", n_workers=2)
        svc = RiskService(config)
        svc.register_workload("tiny", tiny_workload)
        svc.submit({"kind": "run", "program": "tiny"})
        svc.close()
        svc.close()

    def test_cache_eviction_releases_workspace(self, tiny_workload):
        """Evicted plans are garbage collected and their segments unlinked."""
        import gc

        before = _shm_entries()
        config = EngineConfig(backend="multicore", n_workers=2)
        with RiskService(config, cache_size=1) as svc:
            svc.register_workload("tiny", tiny_workload)
            svc.submit({"kind": "run", "program": "tiny"})
            # A different workload evicts the first plan from the size-1 cache.
            svc.submit({"kind": "run_many", "program": "tiny", "variants": 2})
            gc.collect()
            leftover = _shm_entries() - before
            # Only the second plan's workspace may remain.
            assert len(leftover) <= 3  # stack + event_ids + trial_offsets
        assert _shm_entries() - before == set()


class TestShardedRequests:
    """The request-level `shards` field: exact results, distinct cache keys."""

    @pytest.mark.parametrize("kind", ("run", "run_many", "sweep"))
    def test_sharded_request_bit_identical_to_unsharded(self, service, kind):
        base = {"kind": kind, "program": "tiny"}
        if kind in ("run_many", "sweep"):
            base["variants"] = 3
        unsharded = service.submit(dict(base))
        sharded = service.submit(dict(base, shards=4))
        assert len(sharded.results) == len(unsharded.results)
        for lhs, rhs in zip(sharded.results, unsharded.results):
            np.testing.assert_array_equal(lhs.ylt.losses, rhs.ylt.losses)

    def test_shards_participate_in_the_cache_key(self, service):
        service.submit({"kind": "run", "program": "tiny"})
        sharded = service.submit({"kind": "run", "program": "tiny", "shards": 2})
        assert sharded.cache.hit is False  # same program, different shard plan
        warm = service.submit({"kind": "run", "program": "tiny", "shards": 2})
        assert warm.cache.hit is True

    def test_sharded_run_records_shard_count(self, service):
        response = service.submit({"kind": "run", "program": "tiny", "shards": 4})
        assert response.result.details["trial_shards"] == 4

    def test_sharded_multicore_request(self, tiny_workload):
        with RiskService(EngineConfig(backend="multicore", n_workers=2)) as svc:
            svc.register_workload("tiny", tiny_workload)
            sharded = svc.submit({"kind": "run", "program": "tiny", "shards": 3})
        direct = AggregateRiskEngine(EngineConfig()).run(
            tiny_workload.program, tiny_workload.yet
        )
        np.testing.assert_array_equal(sharded.result.ylt.losses, direct.ylt.losses)

    def test_negative_shards_rejected(self, service):
        with pytest.raises(RequestValidationError, match="shards"):
            service.submit({"kind": "run", "program": "tiny", "shards": -1})

    def test_sharded_uncertainty_bands_bit_identical(self, service):
        base = {
            "kind": "uncertainty",
            "program": "tiny",
            "replications": 4,
            "seed": 11,
        }
        unsharded = service.submit(dict(base))
        sharded = service.submit(dict(base, shards=3))
        assert sharded.result.details["trial_shards"] == 3
        for name, band in unsharded.bands.items():
            np.testing.assert_array_equal(sharded.bands[name].values, band.values)
        np.testing.assert_array_equal(
            sharded.result.ylt.losses, unsharded.result.ylt.losses
        )
