"""Golden conformance of trial-sharded execution and exact merging.

The acceptance contract of the sharded refactor: on every backend, with the
fused path and the per-layer ablation alike, executing a plan as any number
of disjoint trial shards — whether internally (``EngineConfig.trial_shards``
/ ``plan.n_shards``) or externally (``plan.shard(n)`` run one plan at a time
and merged through a :class:`~repro.core.results.ResultAccumulator`) —
produces results **bit-identical** to the monolithic plan path.  The merge
is pure column placement over trial-local reductions, so there is no
tolerance to hide behind.

The out-of-core leg: a YET store larger than the shard budget is priced
through :class:`~repro.yet.io.YetShardReader` with peak traced memory
bounded by one shard plus the accumulator — far below what materialising
the whole table costs the monolithic run.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import BACKEND_NAMES, EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.plan import PlanBuilder
from repro.core.results import ResultAccumulator
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.yet.io import YetShardReader, save_yet_store

#: Multicore runs use two workers so block stitching composes with sharding.
N_WORKERS = 2

#: Shard counts covering the boundaries: a divisor of the trial count, a
#: non-divisor, more shards than some blocks, and one (the monolithic loop).
SHARD_COUNTS = (1, 2, 5, 7)


@pytest.fixture(scope="module")
def workload():
    """A seeded workload wide enough (4 layers) for fusion and dedup."""
    spec = WorkloadSpec(
        n_trials=57,
        events_per_trial=22,
        n_layers=4,
        elts_per_layer=3,
        catalog_size=900,
        buildings_per_exposure=40,
        n_regions=6,
        fixed_trial_length=False,
        seed=2012,
    )
    return WorkloadGenerator(spec).generate()


def _assert_identical(lhs_ylt, rhs_ylt):
    assert np.array_equal(lhs_ylt.losses, rhs_ylt.losses)
    if rhs_ylt.max_occurrence_losses is None:
        assert lhs_ylt.max_occurrence_losses is None
    else:
        assert np.array_equal(lhs_ylt.max_occurrence_losses, rhs_ylt.max_occurrence_losses)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("fused", (True, False), ids=["fused", "per-layer"])
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_internal_sharding_bit_identical(workload, backend, fused, n_shards):
    """config.trial_shards never moves a bit, on any backend or path."""
    base = EngineConfig(backend=backend, n_workers=N_WORKERS, fused_layers=fused)
    monolithic = AggregateRiskEngine(base).run(workload.program, workload.yet)
    sharded = AggregateRiskEngine(base.replace(trial_shards=n_shards)).run(
        workload.program, workload.yet
    )
    _assert_identical(sharded.ylt, monolithic.ylt)
    assert sharded.details["trial_shards"] == min(n_shards, workload.yet.n_trials)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_external_shard_merge_bit_identical(workload, backend):
    """plan.shard(n) run independently + accumulated == monolithic, exactly.

    Partials are added in reverse order to prove order independence — the
    distributed scenario, where shards complete whenever their worker does.
    """
    engine = AggregateRiskEngine(EngineConfig(backend=backend, n_workers=N_WORKERS))
    plan = PlanBuilder.from_program(workload.program, workload.yet)
    monolithic = engine.run_plan(plan)

    accumulator = ResultAccumulator.for_plan(plan)
    shard_plans = plan.shard(4)
    assert [p.trials.size for p in shard_plans] == [15, 14, 14, 14]
    for shard_plan in reversed(shard_plans):
        assert not accumulator.is_complete
        accumulator.add_result(engine.run_plan(shard_plan))
    assert accumulator.is_complete
    _assert_identical(accumulator.to_ylt(), monolithic.ylt)


def test_accumulator_merge_across_accumulators_bit_identical(workload):
    """Merging per-process accumulators equals accumulating locally."""
    engine = AggregateRiskEngine(EngineConfig())
    plan = PlanBuilder.from_program(workload.program, workload.yet)
    monolithic = engine.run_plan(plan)

    shard_plans = plan.shard(4)
    left = ResultAccumulator.for_plan(plan)
    right = ResultAccumulator.for_plan(plan)
    for shard_plan in shard_plans[:2]:
        left.add_result(engine.run_plan(shard_plan))
    for shard_plan in shard_plans[2:]:
        right.add_result(engine.run_plan(shard_plan))
    assert not left.is_complete and not right.is_complete
    left.merge(right)
    _assert_identical(left.to_ylt(), monolithic.ylt)


def test_sharded_run_many_and_dedupe_bit_identical(workload):
    """Sharding composes with batched plans and row deduplication."""
    from repro.financial.terms import LayerTerms
    from repro.portfolio.program import ReinsuranceProgram

    program = workload.program
    variant = ReinsuranceProgram(
        [
            layer.with_terms(
                LayerTerms(occurrence_retention=layer.terms.occurrence_retention * 1.5)
            )
            for layer in program.layers
        ],
        name="variant",
    )
    reference = AggregateRiskEngine(EngineConfig()).run_many(
        [program, variant], workload.yet
    )
    sharded = AggregateRiskEngine(EngineConfig(trial_shards=3)).run_many(
        [program, variant], workload.yet
    )
    for lhs, rhs in zip(sharded, reference):
        _assert_identical(lhs.ylt, rhs.ylt)


def test_sharded_run_stacked_bit_identical(workload):
    """Synthetic (stacked) plans shard exactly like program plans."""
    program = workload.program
    stack = np.stack(
        [layer.loss_matrix().combined_net_losses() for layer in program.layers]
    )
    terms = [layer.terms for layer in program.layers]
    reference = AggregateRiskEngine(EngineConfig()).run_stacked(
        stack, terms, workload.yet
    )
    sharded = AggregateRiskEngine(EngineConfig(trial_shards=4)).run_stacked(
        stack, terms, workload.yet
    )
    _assert_identical(sharded.ylt, reference.ylt)


def test_sharded_without_max_occurrence(workload):
    """record_max_occurrence=False flows through the accumulator as None."""
    result = AggregateRiskEngine(
        EngineConfig(trial_shards=3, record_max_occurrence=False)
    ).run(workload.program, workload.yet)
    assert result.ylt.max_occurrence_losses is None


def test_shard_plans_share_one_stack(workload):
    """Sharding a plan must not duplicate the fused loss stack."""
    plan = PlanBuilder.from_program(workload.program, workload.yet)
    shard_plans = plan.shard(3)
    stacks = {id(p.stack()) for p in shard_plans}
    assert stacks == {id(plan.stack())}


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_reader_path_matches_in_memory_path(workload, backend, tmp_path):
    """run_sharded(reader) == run_sharded(table): the bits AND the metadata.

    Both sources run through the one shard driver, so the out-of-core path
    reports what the in-memory path reports: the phase breakdown, the plan
    provenance, the path taken, and the backend's own details.
    """
    engine = AggregateRiskEngine(
        EngineConfig(backend=backend, n_workers=N_WORKERS, record_phases=True)
    )
    in_memory = engine.run_sharded(workload.program, workload.yet, n_shards=4)
    store = save_yet_store(workload.yet, tmp_path / "yet_store")
    with YetShardReader(store) as reader:
        out_of_core = engine.run_sharded(workload.program, reader, n_shards=4)

    _assert_identical(out_of_core.ylt, in_memory.ylt)
    assert out_of_core.workload_shape == in_memory.workload_shape
    assert out_of_core.phase_breakdown is not None
    assert set(out_of_core.phase_breakdown.seconds) == set(in_memory.phase_breakdown.seconds)
    assert set(in_memory.details) <= set(out_of_core.details)
    for key in ("plan", "fused_layers", "trial_shards"):
        assert out_of_core.details[key] == in_memory.details[key]
    assert out_of_core.details["trial_shards"] == 4
    assert out_of_core.details["sharded"] == {"n_shards": 4, "source": "reader"}
    if backend == "native":
        assert out_of_core.details["native_kernel"] == in_memory.details["native_kernel"]
        assert out_of_core.details.get("native_fallback") == in_memory.details.get(
            "native_fallback"
        )


class TestOutOfCore:
    """Pricing a stored YET larger than the shard budget, memory bounded."""

    @pytest.fixture(scope="class")
    def big_workload(self):
        spec = WorkloadSpec(
            n_trials=1600,
            events_per_trial=60,
            n_layers=4,
            elts_per_layer=2,
            catalog_size=1500,
            buildings_per_exposure=30,
            n_regions=6,
            fixed_trial_length=False,
            seed=77,
        )
        return WorkloadGenerator(spec).generate()

    def test_out_of_core_bit_identical_and_memory_bounded(
        self, big_workload, tmp_path
    ):
        """run_sharded over a YetShardReader == in-memory run, bit for bit,
        with peak resident memory bounded by one shard plus the accumulator.
        """
        workload = big_workload
        store = save_yet_store(workload.yet, tmp_path / "yet_store")
        engine = AggregateRiskEngine(EngineConfig(backend="vectorized"))

        # Shard budget of a quarter of the event columns -> >= 4 shards: the
        # stored table is, by construction, larger than one shard's budget.
        event_bytes = workload.yet.event_ids.nbytes + workload.yet.timestamps.nbytes
        budget = event_bytes // 4

        monolithic = engine.run(workload.program, workload.yet)
        # Warm the layers' dense matrices so the traced peak measures the
        # execution working set, not one-time lowering artifacts.
        for layer in workload.program.layers:
            layer.loss_matrix().combined_net_losses()

        tracemalloc.start()
        try:
            with YetShardReader(store) as reader:
                n_shards = reader.shard_count_for_budget(budget)
                assert n_shards >= 4
                assert reader.event_bytes > budget
                tracemalloc.reset_peak()
                sharded = engine.run_sharded(workload.program, reader, n_shards)
                _, sharded_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert np.array_equal(sharded.ylt.losses, monolithic.ylt.losses)
        assert np.array_equal(
            sharded.ylt.max_occurrence_losses, monolithic.ylt.max_occurrence_losses
        )
        assert sharded.details["sharded"]["n_shards"] == n_shards

        # The bound: one shard's YET columns + the fused gather over that
        # shard + the accumulated year-loss blocks + the stack, with a 3x
        # slack factor for scratch buffers.  Holding the whole table (or the
        # monolithic whole-YET gather) would blow far past it.
        n_rows = workload.program.n_layers
        shard_events = -(-workload.yet.n_occurrences // n_shards)
        shard_bytes = shard_events * (8 + 8)            # ids + timestamps
        gather_bytes = n_rows * shard_events * 8        # fused (n_rows, events) buffer
        accumulator_bytes = 2 * n_rows * workload.yet.n_trials * 8
        stack_bytes = n_rows * workload.yet.catalog_size * 8
        bound = 3 * (shard_bytes + gather_bytes) + accumulator_bytes + stack_bytes
        assert sharded_peak < bound
        # And strictly below what the monolithic gather alone costs.
        monolithic_gather = n_rows * workload.yet.n_occurrences * 8
        assert sharded_peak < monolithic_gather

    def test_reader_budget_shards_cover_all_trials(self, big_workload, tmp_path):
        workload = big_workload
        store = save_yet_store(workload.yet, tmp_path / "yet_store_cover")
        with YetShardReader(store) as reader:
            ranges = reader.shard_ranges(9)
            assert ranges[0].start == 0 and ranges[-1].stop == workload.yet.n_trials
            covered = 0
            for trials in ranges:
                assert reader.shard(trials).n_trials == trials.size
                covered += trials.size
            assert covered == workload.yet.n_trials
