"""Ablation — multi-GPU projection for full-portfolio analyses.

Section IV: "Aggregate analysis using 50K trials on complete portfolios
consisting of 5000 contracts can be completed in around 24 hours ... If a
complete portfolio analysis is required on a 1M trial basis then a multi-GPU
hardware platform would likely be required."

This ablation projects the runtime of a 5000-layer portfolio at 1M trials on
1–16 simulated devices (trials split evenly, fixed host-side merge overhead
per device) and attaches the projections to ``extra_info``.  The benchmark
itself times the projection sweep (a pure cost-model evaluation, so it is
cheap) — the quantity of interest is the projected series, not the wall time.
"""

import pytest

from repro.parallel.partitioner import WorkloadShape

from .paper.device import KernelConfig, KernelCostModel, multi_gpu_estimate

PORTFOLIO_SHAPE = WorkloadShape(
    n_trials=1_000_000, events_per_trial=1000.0, n_elts=15, n_layers=5000
)
CONFIG = KernelConfig(threads_per_block=64, chunk_size=4, optimised=True)
GPU_COUNTS = (1, 2, 4, 8, 16)


@pytest.mark.benchmark(group="ablation-multi-gpu")
@pytest.mark.parametrize("n_gpus", GPU_COUNTS)
def test_ablation_multi_gpu_portfolio_projection(benchmark, n_gpus):
    model = KernelCostModel()

    projected = benchmark(lambda: multi_gpu_estimate(model, PORTFOLIO_SHAPE, CONFIG, n_gpus))

    benchmark.extra_info["ablation"] = "multi-gpu"
    benchmark.extra_info["n_gpus"] = n_gpus
    benchmark.extra_info["portfolio_layers"] = PORTFOLIO_SHAPE.n_layers
    benchmark.extra_info["projected_hours"] = projected / 3600.0
    # One device needs tens of hours for the full portfolio at 1M trials;
    # the multi-GPU platform the paper calls for brings it into a working day.
    if n_gpus == 1:
        assert projected > 24 * 3600 * 0.5
    if n_gpus >= 8:
        assert projected < multi_gpu_estimate(model, PORTFOLIO_SHAPE, CONFIG, 1) / 4
