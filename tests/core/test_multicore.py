"""Tests for the multicore (multi-process) backend."""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.multicore import MulticoreEngine
from repro.parallel.scheduling import SchedulingPolicy
from repro.core.plan import PlanBuilder


def _run(engine, program, yet):
    """Drive a backend through its plan scheduler (the only entry point)."""
    return engine.run_plan(PlanBuilder.from_program(program, yet))


class TestMulticoreEngine:
    def test_single_worker_matches_reference(self, tiny_workload, tiny_reference_result):
        engine = MulticoreEngine(EngineConfig(backend="multicore", n_workers=1))
        result = _run(engine, tiny_workload.program, tiny_workload.yet)
        np.testing.assert_allclose(
            result.ylt.losses, tiny_reference_result.ylt.losses, rtol=1e-9, atol=1e-6
        )

    def test_two_workers_match_reference(self, tiny_workload, tiny_reference_result):
        engine = MulticoreEngine(EngineConfig(backend="multicore", n_workers=2))
        result = _run(engine, tiny_workload.program, tiny_workload.yet)
        np.testing.assert_allclose(
            result.ylt.losses, tiny_reference_result.ylt.losses, rtol=1e-9, atol=1e-6
        )

    def test_dynamic_scheduling_matches_reference(self, tiny_workload, tiny_reference_result):
        engine = MulticoreEngine(EngineConfig(
            backend="multicore",
            n_workers=2,
            scheduling=SchedulingPolicy.DYNAMIC,
            oversubscription=4,
        ))
        result = _run(engine, tiny_workload.program, tiny_workload.yet)
        np.testing.assert_allclose(
            result.ylt.losses, tiny_reference_result.ylt.losses, rtol=1e-9, atol=1e-6
        )

    def test_worker_count_independent_results(self, tiny_workload):
        results = []
        for workers in (1, 2, 3):
            engine = MulticoreEngine(EngineConfig(backend="multicore", n_workers=workers))
            results.append(_run(engine, tiny_workload.program, tiny_workload.yet).ylt.losses)
        np.testing.assert_allclose(results[0], results[1], rtol=1e-12)
        np.testing.assert_allclose(results[0], results[2], rtol=1e-12)

    def test_max_occurrence_recorded(self, tiny_workload, tiny_reference_result):
        engine = MulticoreEngine(EngineConfig(backend="multicore", n_workers=2))
        result = _run(engine, tiny_workload.program, tiny_workload.yet)
        np.testing.assert_allclose(
            result.ylt.max_occurrence_losses,
            tiny_reference_result.ylt.max_occurrence_losses,
            rtol=1e-9,
            atol=1e-6,
        )

    def test_details_report_schedule(self, tiny_workload):
        engine = MulticoreEngine(EngineConfig(
            backend="multicore", n_workers=2,
            scheduling=SchedulingPolicy.DYNAMIC, oversubscription=3,
        ))
        result = _run(engine, tiny_workload.program, tiny_workload.yet)
        assert result.details["n_workers"] == 2
        assert result.details["oversubscription"] == 3
        assert result.details["n_blocks"] >= 2

    @pytest.mark.parametrize("n_workers", (1, 2))
    def test_record_phases_sums_worker_phases(self, tiny_workload, n_workers):
        """record_phases is honoured: workers return their per-block seconds."""
        from repro.core.phases import PHASE_ELT_LOOKUP, PHASE_LAYER_TERMS

        engine = MulticoreEngine(
            EngineConfig(backend="multicore", n_workers=n_workers, record_phases=True)
        )
        breakdown = _run(engine, tiny_workload.program, tiny_workload.yet).phase_breakdown
        assert breakdown is not None
        assert breakdown.seconds[PHASE_ELT_LOOKUP] > 0
        assert breakdown.seconds[PHASE_LAYER_TERMS] > 0

    def test_single_layer_accepted(self, tiny_workload):
        engine = MulticoreEngine(EngineConfig(backend="multicore", n_workers=2))
        result = _run(engine, tiny_workload.program[0], tiny_workload.yet)
        assert result.ylt.n_layers == 1
