"""Tests for the multicore (multi-process) backend."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.multicore import MulticoreEngine, available_cores
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

    @pytest.mark.parametrize("oversubscription", (1, 3, 64))
    def test_oversubscription_sets_the_blocks(self, tiny_workload, oversubscription):
        """Each shard is cut into n_workers x oversubscription blocks; same bytes."""
        program, yet = tiny_workload.program, tiny_workload.yet
        engine = MulticoreEngine(EngineConfig(
            backend="multicore", n_workers=2, oversubscription=oversubscription,
            start_method="fork",
        ))
        result = _run(engine, program, yet)
        reference = AggregateRiskEngine(EngineConfig(backend="vectorized")).run(program, yet)
        assert result.details["n_blocks"] == min(yet.n_trials, 2 * oversubscription)
        assert np.array_equal(result.ylt.losses, reference.ylt.losses)
        assert np.array_equal(
            result.ylt.max_occurrence_losses, reference.ylt.max_occurrence_losses
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
            backend="multicore", n_workers=2, oversubscription=3,
        ))
        result = _run(engine, tiny_workload.program, tiny_workload.yet)
        assert result.details["n_workers"] == 2
        assert result.details["oversubscription"] == 3
        assert result.details["n_blocks"] == 6
        assert "scheduling" not in result.details

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


SHM_DIR = Path("/dev/shm")


def _shm_entries() -> set:
    return {p.name for p in SHM_DIR.iterdir()} if SHM_DIR.exists() else set()


class TestTransportRule:
    """The start method alone picks how the plan's arrays reach the workers."""

    def test_fork_inherits_forkserver_publishes(self, tiny_workload):
        import multiprocessing

        if "forkserver" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no forkserver start method")
        before = _shm_entries()
        program, yet = tiny_workload.program, tiny_workload.yet
        results = {
            method: _run(
                MulticoreEngine(EngineConfig(
                    backend="multicore", n_workers=2, start_method=method,
                )),
                program,
                yet,
            )
            for method in ("fork", "forkserver")
        }
        assert results["fork"].details["shared_memory"] is False
        assert results["forkserver"].details["shared_memory"] is True
        assert np.array_equal(results["forkserver"].ylt.losses, results["fork"].ylt.losses)
        assert np.array_equal(
            results["forkserver"].ylt.max_occurrence_losses,
            results["fork"].ylt.max_occurrence_losses,
        )
        assert _shm_entries() - before == set()

    def test_single_worker_runs_in_process(self, tiny_workload):
        engine = MulticoreEngine(EngineConfig(
            backend="multicore", n_workers=1, start_method="spawn",
        ))
        result = _run(engine, tiny_workload.program, tiny_workload.yet)
        assert result.details["shared_memory"] is False


def test_available_cores_positive():
    assert available_cores() >= 1


@pytest.mark.usefixtures("publish_under_fork")
class TestWorkspaceRetention:
    """A warm engine keeps a plan's segments published until told to let go."""

    def _warm_engine(self):
        engine = AggregateRiskEngine(EngineConfig(backend="multicore", n_workers=2))
        engine.retain_shared_workspaces()
        return engine

    def test_release_unlinks_segments_of_a_live_plan(self, tiny_workload):
        before = _shm_entries()
        engine = self._warm_engine()
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        cold, warm = engine.run_plan(plan), engine.run_plan(plan)
        assert cold.details["shared_memory"] is True
        assert (cold.details["workspace_reused"], warm.details["workspace_reused"]) == (
            False, True)
        assert _shm_entries() - before
        engine.release_workspaces()
        assert _shm_entries() - before == set()
        assert engine.run_plan(plan).details["workspace_reused"] is False
        engine.close()
        assert _shm_entries() - before == set()

    def test_disabling_retention_releases(self, tiny_workload):
        before = _shm_entries()
        engine = self._warm_engine()
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        engine.run_plan(plan)
        engine.retain_shared_workspaces(False)
        assert _shm_entries() - before == set()
        assert engine.run_plan(plan).details["workspace_reused"] is False
        assert _shm_entries() - before == set()
