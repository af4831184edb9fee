"""Tests for benchmarks.paper.device (the simulated GPU cost model).

These tests check that the device model reproduces the qualitative behaviours
the paper's GPU experiments demonstrate (occupancy, chunking, shared-memory
capacity), plus the headline quantitative calibration targets.
"""

import pytest

from benchmarks.paper.device import GPUSpec, KernelConfig, KernelCostModel, SimulatedGPU
from repro.parallel.partitioner import WorkloadShape

PAPER_SHAPE = WorkloadShape(n_trials=1_000_000, events_per_trial=1000.0, n_elts=15, n_layers=1)


@pytest.fixture(scope="module")
def gpu() -> SimulatedGPU:
    return SimulatedGPU()


class TestGPUSpec:
    def test_default_spec_is_c2075_like(self):
        spec = GPUSpec()
        assert spec.n_sms == 14
        assert spec.shared_mem_per_sm_bytes == 48 * 1024

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            GPUSpec(n_sms=0)
        with pytest.raises(ValueError):
            GPUSpec(clock_hz=0.0)

    def test_workload_shape_totals(self):
        assert PAPER_SHAPE.total_events == pytest.approx(1e9)
        assert PAPER_SHAPE.total_lookups == pytest.approx(15e9)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            WorkloadShape(n_trials=0, events_per_trial=10, n_elts=1)

    def test_invalid_kernel_config(self):
        with pytest.raises(ValueError):
            KernelConfig(threads_per_block=0)


class TestResidency:
    def test_occupancy_increases_with_threads_up_to_limit(self, gpu):
        model = gpu.cost_model
        occ_128 = model.occupancy(KernelConfig(threads_per_block=128, chunk_size=1, optimised=False))
        occ_256 = model.occupancy(KernelConfig(threads_per_block=256, chunk_size=1, optimised=False))
        assert occ_128 < occ_256
        assert occ_256 == pytest.approx(1.0)

    def test_blocks_per_sm_limited_by_slots(self, gpu):
        model = gpu.cost_model
        assert model.blocks_per_sm(KernelConfig(32, 1, False)) == 8

    def test_spill_zero_within_capacity(self, gpu):
        model = gpu.cost_model
        assert model.spill_fraction(KernelConfig(64, 12, True)) == pytest.approx(0.0)

    def test_spill_positive_beyond_capacity(self, gpu):
        model = gpu.cost_model
        assert model.spill_fraction(KernelConfig(64, 16, True)) > 0.0

    def test_basic_kernel_always_global(self, gpu):
        assert gpu.cost_model.spill_fraction(KernelConfig(256, 1, False)) == 1.0

    def test_max_threads_for_chunk_matches_paper(self, gpu):
        # "With a chunk size of 4 the maximum number of threads that can be
        # supported is 192."
        assert gpu.max_threads_for_chunk(4) == 192

    def test_threads_per_block_limit_enforced(self, gpu):
        with pytest.raises(ValueError):
            gpu.estimate(PAPER_SHAPE, KernelConfig(threads_per_block=2048, chunk_size=1))


class TestFigure4Shape:
    """Basic kernel vs threads per block: >=128 needed, best ~256, flat beyond."""

    def test_128_worse_than_256(self, gpu):
        t128 = gpu.estimate(PAPER_SHAPE, KernelConfig(128, 1, False)).seconds
        t256 = gpu.estimate(PAPER_SHAPE, KernelConfig(256, 1, False)).seconds
        assert t128 > t256

    def test_flat_beyond_256(self, gpu):
        t256 = gpu.estimate(PAPER_SHAPE, KernelConfig(256, 1, False)).seconds
        t512 = gpu.estimate(PAPER_SHAPE, KernelConfig(512, 1, False)).seconds
        assert t512 == pytest.approx(t256, rel=0.1)

    def test_below_128_much_worse(self, gpu):
        t64 = gpu.estimate(PAPER_SHAPE, KernelConfig(64, 1, False)).seconds
        t256 = gpu.estimate(PAPER_SHAPE, KernelConfig(256, 1, False)).seconds
        assert t64 > 1.3 * t256


class TestFigure5Shape:
    """Optimised kernel: chunk 4 ~1.7x better than chunk 1, flat to 12, degrades beyond."""

    def test_chunk4_improvement_over_basic(self, gpu):
        # The paper's 38.47 s -> 22.72 s (1.7x) improvement is measured from
        # the basic (global-memory) kernel to the chunked kernel at chunk 4.
        basic = gpu.estimate(PAPER_SHAPE, KernelConfig(256, 1, False)).seconds
        t1 = gpu.estimate(PAPER_SHAPE, KernelConfig(64, 1, True)).seconds
        t4 = gpu.estimate(PAPER_SHAPE, KernelConfig(64, 4, True)).seconds
        assert basic / t4 == pytest.approx(1.7, rel=0.25)
        assert t1 >= t4

    def test_flat_between_4_and_12(self, gpu):
        t4 = gpu.estimate(PAPER_SHAPE, KernelConfig(64, 4, True)).seconds
        t12 = gpu.estimate(PAPER_SHAPE, KernelConfig(64, 12, True)).seconds
        assert t12 == pytest.approx(t4, rel=0.1)

    def test_degrades_beyond_12(self, gpu):
        t12 = gpu.estimate(PAPER_SHAPE, KernelConfig(64, 12, True)).seconds
        t24 = gpu.estimate(PAPER_SHAPE, KernelConfig(64, 24, True)).seconds
        assert t24 > 1.2 * t12

    def test_threads_sweep_small_improvement(self, gpu):
        times = [gpu.estimate(PAPER_SHAPE, KernelConfig(t, 4, True)).seconds
                 for t in (32, 64, 96, 128, 160, 192)]
        assert all(b <= a * 1.05 for a, b in zip(times, times[1:]))  # non-increasing-ish
        assert times[0] / times[-1] < 1.5  # but not a dramatic improvement


class TestFigure6aCalibration:
    """Headline numbers: basic ~38 s, optimised ~23 s, ratio ~1.7x."""

    def test_basic_kernel_time(self, gpu):
        basic = gpu.estimate(PAPER_SHAPE, KernelConfig(256, 1, False)).seconds
        assert basic == pytest.approx(38.47, rel=0.15)

    def test_optimised_kernel_time(self, gpu):
        optimised = gpu.estimate(PAPER_SHAPE, KernelConfig(64, 4, True)).seconds
        assert optimised == pytest.approx(22.72, rel=0.15)

    def test_ratio(self, gpu):
        basic = gpu.estimate(PAPER_SHAPE, KernelConfig(256, 1, False)).seconds
        optimised = gpu.estimate(PAPER_SHAPE, KernelConfig(64, 4, True)).seconds
        assert basic / optimised == pytest.approx(1.7, rel=0.15)


class TestScalingBehaviour:
    def test_time_linear_in_trials(self, gpu):
        config = KernelConfig(64, 4, True)
        half_shape = WorkloadShape(500_000, 1000.0, 15, 1)
        full = gpu.estimate(PAPER_SHAPE, config).seconds
        half = gpu.estimate(half_shape, config).seconds
        assert full / half == pytest.approx(2.0, rel=0.05)

    def test_time_increases_with_elts(self, gpu):
        config = KernelConfig(64, 4, True)
        few = gpu.estimate(WorkloadShape(100_000, 1000.0, 3, 1), config).seconds
        many = gpu.estimate(WorkloadShape(100_000, 1000.0, 15, 1), config).seconds
        assert many > 3 * few

    def test_estimate_breakdown_sums_sensibly(self, gpu):
        est = gpu.estimate(PAPER_SHAPE, KernelConfig(64, 4, True))
        assert est.breakdown["elt_lookup"] > 0
        assert est.seconds > 0
        assert "occupancy" in est.summary()
