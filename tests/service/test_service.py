"""Tests for the RiskService: dispatch, caching, warm-path identity, shm."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.config import BACKEND_NAMES, EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.financial.terms import LayerTerms
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.portfolio.pricing import batch_quote
from repro.service import (
    AnalysisRequest,
    AnalysisResponse,
    RequestValidationError,
    RiskService,
)
from repro.service.service import candidate_variants
from tests.service.test_result_cache import (
    append_trials,
    backend_config,
    counting_service,
    with_scaled_layer,
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

    def test_result_needs_a_single_result(self, service):
        response = service.submit({"kind": "run_many", "program": "tiny", "variants": 2})
        assert len(response.results) == 2
        with pytest.raises(ValueError, match="index `results` directly"):
            response.result

    def test_total_seconds_is_the_total_timing(self, service):
        response = service.submit({"kind": "run", "program": "tiny"})
        assert response.total_seconds == response.timings["total"] > 0.0
        assert AnalysisResponse(response.request, response.results).total_seconds == 0.0

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
        assert response.quotes[0].uncertainty
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
        import repro.service.service as service_module

        def exploding_price(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pricing must be skipped when quote=false")

        monkeypatch.setattr(service_module, "price_program", exploding_price)
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

    def test_colliding_return_periods_rejected_before_sampling(self, service):
        """``[100, 100]`` once pooled 2R values into one ``pml_100`` band."""
        with pytest.raises(RequestValidationError) as excinfo:
            service.submit({"kind": "uncertainty", "program": "tiny", "replications": 3,
                            "return_periods": [100, 100], "seed": 1})
        assert excinfo.value.field == "return_periods"

    @pytest.mark.parametrize("field,value", [("shards", "2"), ("seed", -1), ("quote", "no")])
    def test_wrong_wire_type_names_the_field(self, service, field, value):
        with pytest.raises(RequestValidationError) as excinfo:
            service.submit({"kind": "run", "program": "tiny", field: value})
        assert excinfo.value.field == field

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


def assert_runs_equal(served, want):
    """Losses and maximum-occurrence losses, byte for byte."""
    assert served.ylt.losses.tobytes() == want.ylt.losses.tobytes()
    assert served.ylt.max_occurrence_losses.tobytes() == (
        want.ylt.max_occurrence_losses.tobytes()
    )


class TestSweep:
    """A ``sweep`` is ``run_many`` priced in blocks of at most
    ``max_rows_per_block`` rows."""

    @staticmethod
    def sweep(service, **extra):
        return service.submit({"kind": "sweep", "program": "tiny", **extra})

    def test_single_block_by_default(self, service, tiny_workload):
        response = self.sweep(service, variants=3)
        assert [block["rows"] for block in response.details["blocks"]] == [
            3 * tiny_workload.program.n_layers
        ]

    @pytest.mark.parametrize("bound", [1, 3, 4, 5])
    def test_rows_per_priced_block_within_the_bound(self, service, monkeypatch, bound):
        priced = []
        run_plan = service.engine.run_plan
        monkeypatch.setattr(
            service.engine, "run_plan", lambda plan: priced.append(plan.n_rows) or run_plan(plan)
        )
        response = self.sweep(service, variants=4, max_rows_per_block=bound)
        assert priced and max(priced) <= bound
        assert sum(priced) == 8  # 4 variants x 2 layers, each priced once
        assert [block["rows"] for block in response.details["blocks"]] == priced
        assert len(response.results) == 4

    def test_dedup_within_block(self, service, tiny_workload):
        (block,) = self.sweep(service, variants=4).details["blocks"]
        assert block["rows"] == 4 * tiny_workload.program.n_layers
        assert block["n_unique_rows"] == tiny_workload.program.n_layers

    def test_single_layer_program(self, service, tiny_workload):
        service.register_program("one", tiny_workload.program[0])
        response = service.submit({"kind": "sweep", "programs": ["one"], "yet": "tiny"})
        assert response.details["blocks"][0]["rows"] == 1
        assert response.quotes[0].n_layers == 1

    def test_quotes_match_batch_quote(self, service, tiny_workload):
        variants = candidate_variants(tiny_workload.program, 3)
        expected = batch_quote(variants, tiny_workload.yet, engine=AggregateRiskEngine())
        quotes = self.sweep(service, variants=3, max_rows_per_block=2).quotes
        assert [q.summary() for q in quotes] == [q.summary() for q in expected]

    def test_bit_identical_across_block_sizes_and_shards(self, service):
        reference = self.sweep(service, variants=4)
        for extra in ({"max_rows_per_block": 3}, {"shards": 3},
                      {"max_rows_per_block": 1, "shards": 2}):
            response = self.sweep(service, variants=4, **extra)
            for got, want in zip(response.results, reference.results):
                assert_runs_equal(got, want)


def check_many_programs(workload, config, form, state, workers=()):
    """Serve four term variants as one ``form`` request in cache ``state``
    (``cold`` / ``exact`` / ``rows`` / ``append`` / ``nocache``) and hold
    every answer to a per-program ``engine.run``."""
    variants = candidate_variants(workload.program, 4)
    yet = workload.yet
    names = [f"v{i}" for i in range(len(variants))]
    document = {**form, "programs": names, "yet": "book", "workers": list(workers)}
    with RiskService(config, result_cache=True) as service:
        for name, variant in zip(names, variants):
            service.register_program(name, variant)
        service.register_yet("book", yet)
        if state != "cold":
            service.submit(document)
        if state == "rows":  # one variant's terms change
            variants[2] = with_scaled_layer(variants[2], 1)
            service.register_program("v2", variants[2])
        elif state == "append":
            yet = append_trials(yet, 24)
            service.register_yet("book", yet)
        elif state == "nocache":
            document["result_cache"] = False
        response = service.submit(document)
    if state == "nocache":
        assert response.result_cache is None
    else:
        assert response.result_cache["status"] == EXPECTED_STATUS[state]
    if state == "rows":
        assert response.result_cache["repriced_rows"] == [5]
    engine = AggregateRiskEngine(config)
    assert len(response.results) == len(variants)
    for got, variant in zip(response.results, variants):
        assert_runs_equal(got, engine.run(variant, yet))
    return response


FORMS = {
    "run_many": {"kind": "run_many"},
    "sweep-0": {"kind": "sweep", "max_rows_per_block": 0},
    "sweep-3": {"kind": "sweep", "max_rows_per_block": 3},
}
EXPECTED_STATUS = {"cold": "miss", "exact": "exact", "rows": "rows", "append": "append"}


class TestManyProgramsAreOneRun:
    """``run_many`` and ``sweep`` take the ``run`` path: one result-cache
    entry per request, every answer equal to per-program ``engine.run``."""

    @pytest.mark.parametrize("state", ["cold", "exact", "rows", "append", "nocache"])
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("form", list(FORMS))
    def test_every_answer_equals_per_program_runs(self, tiny_workload, form, backend, state):
        check_many_programs(tiny_workload, backend_config(backend), FORMS[form], state)

    def test_repeated_run_many_runs_no_plan(self, tiny_workload):
        service, calls = counting_service(EngineConfig(), result_cache=True)
        with service:
            service.register_workload("tiny", tiny_workload)
            request = {"kind": "run_many", "program": "tiny", "variants": 8}
            cold = service.submit(request)
            assert len(calls) == 1  # one plan for all eight variants
            calls.clear()
            warm = service.submit(request)
        assert warm.result_cache["status"] == "exact"
        assert calls == []
        for got, want in zip(warm.results, cold.results):
            assert_runs_equal(got, want)

    def test_one_entry_per_request(self, tiny_workload):
        with RiskService(EngineConfig(), result_cache=True) as cached:
            cached.register_workload("tiny", tiny_workload)
            cached.submit({"kind": "run", "program": "tiny"})
            before = len(cached.result_cache)
            cached.submit({"kind": "run_many", "program": "tiny", "variants": 8})
            assert len(cached.result_cache) == before + 1

    def test_one_program_request_concatenates_and_splits_nothing(
        self, tiny_workload, monkeypatch
    ):
        import repro.service.service as service_module
        from repro.core.results import EngineResult

        built = []

        class SpyProgram(ReinsuranceProgram):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        def no_split(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a one-program request must not split its answer")

        monkeypatch.setattr(service_module, "ReinsuranceProgram", SpyProgram)
        monkeypatch.setattr(EngineResult, "for_layer_subset", no_split)
        with RiskService(EngineConfig(), result_cache=True) as service:
            service.register_workload("tiny", tiny_workload)
            for document in ({"kind": "run", "program": "tiny"},
                             {"kind": "run_many", "programs": ["tiny"]},
                             {"kind": "sweep", "programs": ["tiny"], "max_rows_per_block": 1}):
                response = service.submit(document)
                (only,) = response.results
        assert built == []

    def test_serve_mixed_shape_fits_the_default_cache(self, tiny_workload):
        """12 books + 4 eight-variant run_many requests: 16 entries, no eviction."""
        base = tiny_workload.program
        with RiskService(EngineConfig(), result_cache=True) as service:
            service.register_yet("book", tiny_workload.yet)
            for i in range(12):
                service.register_program(
                    f"book-{i}", candidate_variants(base, i + 1)[i]
                )
            documents = [{"kind": "run", "program": f"book-{i}", "yet": "book"}
                         for i in range(12)]
            documents += [{"kind": "run_many", "program": f"book-{i}", "variants": 8,
                           "yet": "book"} for i in range(4)]
            first = [service.submit(document) for document in documents]
            second = [service.submit(document) for document in documents]
            stats = service.result_cache_stats()
        assert {r.result_cache["status"] for r in first} == {"miss"}
        assert [r.result_cache["status"] for r in second] == ["exact"] * 16
        assert stats.evictions == 0
        for cold, warm in zip(first, second):
            for got, want in zip(warm.results, cold.results):
                assert_runs_equal(got, want)
