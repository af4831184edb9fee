"""Tests for the multi-GPU runtime projection (Section IV discussion)."""

import pytest

from benchmarks.paper.device import KernelConfig, KernelCostModel, multi_gpu_estimate
from repro.parallel.partitioner import WorkloadShape

PORTFOLIO_SHAPE = WorkloadShape(n_trials=1_000_000, events_per_trial=1000.0, n_elts=15,
                                n_layers=100)
SINGLE_LAYER_SHAPE = WorkloadShape(n_trials=1_000_000, events_per_trial=1000.0, n_elts=15,
                                   n_layers=1)
CONFIG = KernelConfig(threads_per_block=64, chunk_size=4, optimised=True)


class TestMultiGPUEstimate:
    def test_single_gpu_matches_plain_estimate_plus_overhead(self):
        model = KernelCostModel()
        single = model.estimate(SINGLE_LAYER_SHAPE, CONFIG).seconds
        assert multi_gpu_estimate(model, SINGLE_LAYER_SHAPE, CONFIG, 1) == pytest.approx(
            single + 0.05, rel=1e-6
        )

    def test_more_gpus_reduce_runtime(self):
        model = KernelCostModel()
        times = [multi_gpu_estimate(model, PORTFOLIO_SHAPE, CONFIG, n) for n in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_near_linear_scaling_for_large_portfolios(self):
        model = KernelCostModel()
        one = multi_gpu_estimate(model, PORTFOLIO_SHAPE, CONFIG, 1)
        eight = multi_gpu_estimate(model, PORTFOLIO_SHAPE, CONFIG, 8)
        assert one / eight == pytest.approx(8.0, rel=0.1)

    def test_sync_overhead_limits_tiny_workloads(self):
        model = KernelCostModel()
        tiny = WorkloadShape(n_trials=1000, events_per_trial=100.0, n_elts=3, n_layers=1)
        one = multi_gpu_estimate(model, tiny, CONFIG, 1)
        sixteen = multi_gpu_estimate(model, tiny, CONFIG, 16)
        assert sixteen > one  # overhead dominates: no benefit from 16 devices

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            multi_gpu_estimate(KernelCostModel(), SINGLE_LAYER_SHAPE, CONFIG, 0)

    def test_full_portfolio_needs_multiple_gpus_for_daily_turnaround(self):
        # The paper's discussion: a full portfolio on a 1M-trial basis needs a
        # multi-GPU platform.  A 100-layer portfolio models at ~40 minutes on
        # one device and under ~10 minutes on eight.
        model = KernelCostModel()
        one = multi_gpu_estimate(model, PORTFOLIO_SHAPE, CONFIG, 1)
        eight = multi_gpu_estimate(model, PORTFOLIO_SHAPE, CONFIG, 8)
        assert one > 600.0
        assert eight < one / 4
