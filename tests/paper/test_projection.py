"""Tests for benchmarks.paper.projection (full-scale runtime projections)."""

import pytest

from benchmarks.paper.projection import CPUCostModel, memory_bound_speedup_model, project_summary
from repro.parallel.partitioner import WorkloadShape

PAPER_SHAPE = WorkloadShape(n_trials=1_000_000, events_per_trial=1000.0, n_elts=15, n_layers=1)


class TestMemoryBoundSpeedupModel:
    def test_single_core_speedup_is_one(self):
        assert memory_bound_speedup_model(1) == pytest.approx(1.0)

    def test_speedup_monotone_but_saturating(self):
        speedups = [memory_bound_speedup_model(n) for n in (1, 2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(speedups, speedups[1:]))
        # Far below linear scaling at 8+ cores (the paper reports 2.6x at 8).
        assert speedups[3] < 4.0

    def test_matches_paper_ballpark(self):
        # Paper: 1.5x (2 cores), 2.2x (4), 2.6x (8).  The simple roofline model
        # reproduces the saturating shape within ~35 %.
        assert memory_bound_speedup_model(2) == pytest.approx(1.5, rel=0.4)
        assert memory_bound_speedup_model(4) == pytest.approx(2.2, rel=0.35)
        assert memory_bound_speedup_model(8) == pytest.approx(2.6, rel=0.25)

    def test_pure_compute_scales_linearly(self):
        assert memory_bound_speedup_model(8, memory_bound_fraction=0.0) == pytest.approx(8.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            memory_bound_speedup_model(0)
        with pytest.raises(ValueError):
            memory_bound_speedup_model(2, memory_bound_fraction=1.5)


class TestCPUCostModel:
    def test_sequential_time_scales_linearly_in_trials(self):
        model = CPUCostModel()
        full = model.sequential_seconds(PAPER_SHAPE)
        half = model.sequential_seconds(WorkloadShape(500_000, 1000.0, 15, 1))
        assert full / half == pytest.approx(2.0, rel=1e-6)

    def test_sequential_time_scales_with_elts(self):
        model = CPUCostModel()
        few = model.sequential_seconds(WorkloadShape(100_000, 1000.0, 3, 1))
        many = model.sequential_seconds(WorkloadShape(100_000, 1000.0, 15, 1))
        assert many > 4 * few

    def test_multicore_faster_but_saturating(self):
        model = CPUCostModel()
        seq = model.sequential_seconds(PAPER_SHAPE)
        two = model.multicore_seconds(PAPER_SHAPE, 2)
        eight = model.multicore_seconds(PAPER_SHAPE, 8)
        assert seq > two > eight
        assert seq / eight < 4.0  # far from linear speedup

    def test_phase_fractions_sum_to_one(self):
        fractions = CPUCostModel().phase_fractions(PAPER_SHAPE)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_elt_lookup_dominates(self):
        # The paper measures 78% of the runtime in ELT lookups (Fig. 6b).
        fractions = CPUCostModel().phase_fractions(PAPER_SHAPE)
        assert fractions["elt_lookup"] == pytest.approx(0.78, abs=0.12)
        assert fractions["elt_lookup"] == max(fractions.values())

    def test_invalid_calibration(self):
        with pytest.raises(ValueError):
            CPUCostModel(ns_per_elt_lookup=0.0)


class TestProjectSummary:
    def test_keys_present(self):
        summary = project_summary(PAPER_SHAPE)
        assert set(summary) == {"sequential_cpu", "multicore_cpu", "basic_gpu", "optimised_gpu"}

    def test_ordering_matches_paper(self):
        summary = project_summary(PAPER_SHAPE, n_cores=8)
        assert (
            summary["sequential_cpu"]
            > summary["multicore_cpu"]
            > summary["basic_gpu"]
            > summary["optimised_gpu"]
        )

    def test_gpu_speedups_match_paper_factors(self):
        # Paper: basic GPU 3.2x and optimised GPU 5.4x faster than the best
        # multi-core CPU time.
        summary = project_summary(PAPER_SHAPE, n_cores=8)
        assert summary["multicore_cpu"] / summary["basic_gpu"] == pytest.approx(3.2, rel=0.3)
        assert summary["multicore_cpu"] / summary["optimised_gpu"] == pytest.approx(5.4, rel=0.3)

    def test_optimised_gpu_near_20_seconds(self):
        # "the optimised GPU algorithm can perform a 1 million trial aggregate
        # simulation on a typical contract in just over 20 seconds"
        summary = project_summary(PAPER_SHAPE)
        assert summary["optimised_gpu"] == pytest.approx(22.0, rel=0.2)

    def test_50k_trials_subsecond_claim(self):
        # "In many applications 50K trials may be sufficient in which case sub
        # one second response time can be achieved."
        shape = WorkloadShape(50_000, 1000.0, 15, 1)
        summary = project_summary(shape)
        assert summary["optimised_gpu"] < 1.5
