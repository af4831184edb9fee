"""Tests for the ExecutionPlan IR and its builders."""

import numpy as np
import pytest

import repro.core.kernels as kernels
import repro.core.plan as plan_module
from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.plan import ExecutionPlan, PlanBuilder, PlanSegment
from repro.elt.table import EventLossTable
from repro.financial.terms import LayerTerms, LayerTermsVectors
from repro.parallel.partitioner import TrialRange
from repro.service.service import candidate_variants
from repro.workloads import WorkloadGenerator, WorkloadSpec
from repro.ylt.table import YearLossTable


class TestPlanBuilderFromProgram:
    def test_one_row_per_layer(self, tiny_workload):
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        assert plan.n_rows == tiny_workload.program.n_layers
        assert plan.n_unique_rows == plan.n_rows
        assert plan.has_layers
        assert plan.row_map is None
        assert plan.row_names == tiny_workload.program.layer_names
        assert len(plan.segments) == 1

    def test_accepts_bare_layer(self, tiny_workload):
        plan = PlanBuilder.from_program(tiny_workload.program[0], tiny_workload.yet)
        assert plan.n_rows == 1

    def test_stack_matches_layer_net_losses(self, tiny_workload):
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        stack = plan.stack()
        assert stack.shape == (plan.n_rows, plan.catalog_size)
        for row, layer in enumerate(tiny_workload.program.layers):
            np.testing.assert_array_equal(
                stack[row], layer.loss_matrix().combined_net_losses()
            )

    def test_stack_cached(self, tiny_workload):
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        assert plan.stack() is plan.stack()

    def test_concatenated_variants_share_rows_as_from_programs_does(self, tiny_workload):
        program = tiny_workload.program
        variants = [
            program,
            type(program)(
                [layer.with_terms(LayerTerms(occurrence_retention=10.0))
                 for layer in program.layers],
                name="tighter",
            ),
        ]
        concatenated = type(program)(
            [layer for variant in variants for layer in variant.layers], name="both"
        )
        plan = PlanBuilder.from_program(concatenated, tiny_workload.yet)
        batch = PlanBuilder.from_programs(variants, tiny_workload.yet)
        assert plan.n_unique_rows == program.n_layers
        np.testing.assert_array_equal(plan.row_map, batch.row_map)


class TestPlanBuilderFromPrograms:
    def test_segments_cover_rows_in_order(self, tiny_workload):
        program = tiny_workload.program
        variant = program.subset([0], name="variant")
        plan = PlanBuilder.from_programs([program, variant], tiny_workload.yet)
        assert [s.name for s in plan.segments] == [program.name, "variant"]
        assert plan.segments[0].n_rows == program.n_layers
        assert plan.segments[1].n_rows == 1
        assert plan.segments[1].metadata["batch"]["index"] == 1

    def test_dedupes_shared_elt_rows(self, tiny_workload):
        program = tiny_workload.program
        variants = [
            program,
            # with_terms shares the ELT objects -> rows must be shared.
            type(program)(
                [layer.with_terms(LayerTerms(occurrence_retention=10.0))
                 for layer in program.layers],
                name="tighter",
            ),
        ]
        plan = PlanBuilder.from_programs(variants, tiny_workload.yet)
        assert plan.n_rows == 2 * program.n_layers
        assert plan.n_unique_rows == program.n_layers
        assert plan.row_map is not None
        np.testing.assert_array_equal(
            plan.row_map, np.tile(np.arange(program.n_layers), 2)
        )
        # The deduped stack still holds one row per *unique* layer.
        assert plan.stack().shape[0] == program.n_layers

    def test_dedupe_disabled(self, tiny_workload):
        program = tiny_workload.program
        plan = PlanBuilder.from_programs(
            [program, program], tiny_workload.yet, dedupe=False
        )
        assert plan.row_map is None
        assert plan.n_unique_rows == 2 * program.n_layers

    def test_distinct_elts_not_deduped(self, tiny_workload):
        program = tiny_workload.program
        plan = PlanBuilder.from_programs(
            [program, program.subset([0], name="other")], tiny_workload.yet
        )
        # subset shares layer objects -> its row is deduplicated.
        assert plan.n_unique_rows == program.n_layers

    def test_empty_batch_rejected(self, tiny_workload):
        with pytest.raises(ValueError, match="at least one"):
            PlanBuilder.from_programs([], tiny_workload.yet)


class TestSharedRowMap:
    def test_elt_ids_are_read_once_per_distinct_tuple(self, tiny_workload, monkeypatch):
        program = tiny_workload.program
        layers = [layer for variant in candidate_variants(program, 8) for layer in variant.layers]
        before = [sorted(vars(layer)) for layer in layers]
        seen = []
        monkeypatch.setattr(
            plan_module, "id", lambda obj: seen.append(obj) or id(obj), raising=False
        )
        row_map = plan_module._shared_row_map(layers)
        np.testing.assert_array_equal(row_map, np.tile(np.arange(program.n_layers), 8))
        elt_reads = [obj for obj in seen if isinstance(obj, EventLossTable)]
        assert len(elt_reads) == sum(layer.n_elts for layer in program.layers)
        # Nothing is stored on the layers (a stored id tuple would go stale
        # once a layer is pickled to another process).
        assert [sorted(vars(layer)) for layer in layers] == before


class TestTermVariantWorkCounts:
    """At the ``batch_wide`` ledger shape — 16 term variants of an 8-layer,
    8-ELT book: 128 plan rows over 8 unique rows, 150 trials x 100 events —
    the per-trial max reduces the unique rows only, and the split builds no
    table; the answers are the solo runs', byte for byte."""

    @pytest.fixture(scope="class")
    def book(self):
        spec = WorkloadSpec(
            n_trials=150, events_per_trial=100, n_layers=8, elts_per_layer=8,
            catalog_size=20_000, buildings_per_exposure=60, n_regions=32,
            fixed_trial_length=True, seed=2012,
        )
        return WorkloadGenerator(spec).generate()

    def test_max_sees_unique_rows_and_split_builds_no_table(self, book, monkeypatch):
        variants = candidate_variants(book.program, 16)
        plan = PlanBuilder.from_programs(variants, book.yet)
        assert (plan.n_rows, plan.n_unique_rows) == (128, 8)
        engine = AggregateRiskEngine(EngineConfig())

        reduced_rows = []
        segment_max_2d = kernels.segment_max_2d

        def counting_max(values, offsets):
            reduced_rows.append(len(values))
            return segment_max_2d(values, offsets)

        monkeypatch.setattr(kernels, "segment_max_2d", counting_max)
        combined = engine.run_plan(plan)
        assert reduced_rows == [8]

        tables = []
        init = YearLossTable.__init__

        def counting_init(self, *args, **kwargs):
            tables.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(YearLossTable, "__init__", counting_init)
        split = plan.split_result(combined)
        assert tables == [] and len(split) == 16
        monkeypatch.undo()

        for variant, got in zip(variants, split, strict=True):
            solo = engine.run(variant, book.yet).ylt
            assert got.ylt.losses.tobytes() == solo.losses.tobytes()
            assert got.ylt.max_occurrence_losses.tobytes() == solo.max_occurrence_losses.tobytes()


class TestPlanBuilderFromStack:
    def test_synthetic_plan(self, tiny_workload):
        catalog = tiny_workload.program.catalog_size
        stack = np.random.default_rng(0).random((3, catalog))
        plan = PlanBuilder.from_stack(
            stack, [LayerTerms()] * 3, tiny_workload.yet, row_names=["a", "b", "c"]
        )
        assert not plan.has_layers
        assert plan.n_rows == 3
        assert plan.source == "stacked"
        np.testing.assert_array_equal(plan.stack(), stack)

    def test_stack_row_count_must_cover_terms(self, tiny_workload):
        catalog = tiny_workload.program.catalog_size
        with pytest.raises(ValueError, match="rows"):
            PlanBuilder.from_stack(
                np.zeros((2, catalog)), [LayerTerms()] * 3, tiny_workload.yet
            )


class TestExecutionPlanValidation:
    def test_needs_layers_or_stack(self, tiny_workload):
        with pytest.raises(ValueError, match="either source layers"):
            ExecutionPlan(tiny_workload.yet, [LayerTerms()])

    def test_segments_must_tile(self, tiny_workload):
        catalog = tiny_workload.program.catalog_size
        with pytest.raises(ValueError, match="tile"):
            ExecutionPlan(
                tiny_workload.yet,
                [LayerTerms()] * 2,
                stack=np.zeros((2, catalog)),
                segments=[PlanSegment("a", 0, 1)],
            )

    def test_row_names_length_checked(self, tiny_workload):
        catalog = tiny_workload.program.catalog_size
        with pytest.raises(ValueError, match="row names"):
            ExecutionPlan(
                tiny_workload.yet,
                [LayerTerms()] * 2,
                stack=np.zeros((2, catalog)),
                row_names=["only-one"],
            )

    def test_sparse_row_map_rejected_without_stack(self, tiny_workload):
        """A layer-built stack needs a dense 0..k-1 mapping (no holes)."""
        layers = list(tiny_workload.program.layers)
        with pytest.raises(ValueError, match="densely cover"):
            ExecutionPlan(
                tiny_workload.yet,
                [layer.terms for layer in layers],
                layers=layers,
                row_map=np.array([0, 2], dtype=np.int64),
            )

    def test_sparse_row_map_allowed_with_precomputed_stack(self, tiny_workload):
        """A precomputed stack may legitimately carry unreferenced rows."""
        catalog = tiny_workload.program.catalog_size
        stack = np.zeros((3, catalog))
        plan = ExecutionPlan(
            tiny_workload.yet,
            [LayerTerms()] * 2,
            stack=stack,
            row_map=np.array([0, 2], dtype=np.int64),
        )
        assert plan.n_unique_rows == 2

    def test_row_map_shape_checked(self, tiny_workload):
        catalog = tiny_workload.program.catalog_size
        with pytest.raises(ValueError, match="row_map"):
            ExecutionPlan(
                tiny_workload.yet,
                [LayerTerms()] * 2,
                stack=np.zeros((2, catalog)),
                row_map=np.zeros(5, dtype=np.int64),
            )


class TestRestrict:
    def test_shard_shares_the_parent_stack(self, tiny_workload):
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        child = plan.restrict(TrialRange(2, 7))
        assert (child.trials.start, child.trials.stop) == (2, 7)
        assert child.n_trials == 5
        assert child.stack() is plan.stack()

    def test_range_outside_the_plan_rejected(self, tiny_workload):
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        child = plan.restrict(TrialRange(2, 7))
        with pytest.raises(ValueError, match="outside the plan"):
            child.restrict(TrialRange(0, 4))
        with pytest.raises(ValueError, match="outside the plan"):
            plan.restrict(TrialRange(0, tiny_workload.yet.n_trials + 1))

    def test_stack_f32_is_the_cached_quantised_stack(self, tiny_workload):
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        quantised = plan.stack_f32()
        assert quantised.dtype == np.float32
        assert quantised.flags.c_contiguous
        np.testing.assert_array_equal(quantised, plan.stack().astype(np.float32))
        assert plan.stack_f32() is quantised

    def test_shards_quantise_once(self, tiny_workload):
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        shards = plan.shard(3)
        assert len(shards) > 1
        assert all(shard.stack_f32() is plan.stack_f32() for shard in shards)


class TestSplitResult:
    def test_roundtrip_matches_solo_runs(self, tiny_workload):
        engine = AggregateRiskEngine(EngineConfig())
        program = tiny_workload.program
        variant = program.subset([1], name="variant")
        plan = PlanBuilder.from_programs([program, variant], tiny_workload.yet)
        combined = engine.run_plan(plan)
        split = plan.split_result(combined)
        assert len(split) == 2
        solo = engine.run(variant, tiny_workload.yet)
        np.testing.assert_array_equal(split[1].ylt.losses, solo.ylt.losses)
        assert split[1].details["batch"]["program"] == "variant"

    def test_row_count_mismatch_rejected(self, tiny_workload):
        engine = AggregateRiskEngine(EngineConfig())
        program = tiny_workload.program
        plan = PlanBuilder.from_programs([program, program], tiny_workload.yet)
        solo = engine.run(program, tiny_workload.yet)
        with pytest.raises(ValueError, match="plan describes"):
            plan.split_result(solo)


class TestPlanDetails:
    def test_plan_provenance_recorded(self, tiny_workload):
        result = AggregateRiskEngine(EngineConfig()).run(
            tiny_workload.program, tiny_workload.yet
        )
        assert result.details["plan"]["source"] == "program"
        assert result.details["plan"]["n_rows"] == tiny_workload.program.n_layers


class TestTermsVectorsRoundtrip:
    def test_plan_terms_match_layers(self, tiny_workload):
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        expected = LayerTermsVectors.from_terms(
            [layer.terms for layer in tiny_workload.program.layers]
        )
        np.testing.assert_array_equal(
            plan.terms.occurrence_retentions, expected.occurrence_retentions
        )
        np.testing.assert_array_equal(
            plan.terms.aggregate_limits, expected.aggregate_limits
        )
