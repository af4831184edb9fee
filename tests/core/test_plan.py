"""Tests for the ExecutionPlan IR and its builders."""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.plan import ExecutionPlan, PlanBuilder, PlanSegment
from repro.financial.terms import LayerTerms, LayerTermsVectors


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

    def test_unknown_shared_memory_mode_rejected(self):
        with pytest.raises(ValueError, match="shared_memory"):
            EngineConfig(shared_memory="sometimes")


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
