"""Figure 4 — basic GPU kernel: execution time vs threads per CUDA block.

Paper configuration: basic (global-memory) CUDA kernel, 1 million trials x
1000 events x 15 ELTs on a Tesla C2075, threads per block varied 128..640; at
least 128 threads per block are needed, the best time is at ~256, and beyond
that improvements diminish.

Reproduction: the :class:`~benchmarks.paper.device.SimulatedGPU` cost model
projects the kernel time of the paper's full-scale launch for each
threads-per-block value; the projection is attached to
``extra_info["modeled_full_scale_seconds"]`` and is the series to compare
against the paper's figure.  The benchmark times the basic kernel's
year-loss computation on a scaled workload — the per-layer ``vectorized``
path (``fused_layers=False``), which computes exactly the basic kernel's
numbers; the block size only exists on the device, so the measured time does
not depend on it.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.workloads.presets import PAPER_FULL_SCALE

from .paper.device import KernelConfig, SimulatedGPU

THREADS_PER_BLOCK = (128, 256, 384, 512, 640)

FULL_SCALE_SHAPE = PAPER_FULL_SCALE.shape()

BASIC_KERNEL = EngineConfig(
    backend="vectorized", fused_layers=False, record_max_occurrence=False
)


@pytest.mark.benchmark(group="fig4-gpu-threads-per-block")
@pytest.mark.parametrize("threads_per_block", THREADS_PER_BLOCK)
def test_fig4_basic_gpu_time_vs_threads_per_block(benchmark, baseline_workload, threads_per_block):
    engine = AggregateRiskEngine(BASIC_KERNEL)

    result = benchmark(lambda: engine.run(baseline_workload.program, baseline_workload.yet))

    modeled = SimulatedGPU().estimate(
        FULL_SCALE_SHAPE, KernelConfig(threads_per_block=threads_per_block, optimised=False)
    )
    benchmark.extra_info["figure"] = "4"
    benchmark.extra_info["threads_per_block"] = threads_per_block
    benchmark.extra_info["modeled_full_scale_seconds"] = modeled.seconds
    benchmark.extra_info["occupancy"] = modeled.occupancy
    benchmark.extra_info["paper_reference"] = "38.47 s at the best configuration"
    assert modeled.seconds > 0
    assert result.ylt.losses.shape == (1, baseline_workload.yet.n_trials)
