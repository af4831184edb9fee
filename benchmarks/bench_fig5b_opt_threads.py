"""Figure 5b — optimised GPU kernel: execution time vs threads per block.

Paper observation: with a chunk size of 4 the maximum number of threads per
block the shared memory supports is 192; sweeping the thread count in warp
multiples (32..192) shows only a small, gradual improvement.

Reproduction: the device model projects the full-scale kernel time per
threads-per-block value at chunk size 4, while the benchmark times the
optimised kernel's year-loss computation on the scaled workload (the
per-layer ``chunked`` path with ``chunk_events = threads_per_block * 4``).
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.workloads.presets import PAPER_FULL_SCALE

from .paper.device import KernelConfig, SimulatedGPU

THREADS_PER_BLOCK = (32, 64, 96, 128, 160, 192)
CHUNK_SIZE = 4

FULL_SCALE_SHAPE = PAPER_FULL_SCALE.shape()


def test_fig5b_paper_thread_limit_at_chunk4():
    """The device model reproduces the paper's 192-thread limit at chunk 4."""
    assert SimulatedGPU().max_threads_for_chunk(CHUNK_SIZE) == 192


@pytest.mark.benchmark(group="fig5b-gpu-threads-optimised")
@pytest.mark.parametrize("threads_per_block", THREADS_PER_BLOCK)
def test_fig5b_optimised_gpu_time_vs_threads(benchmark, baseline_workload, threads_per_block):
    engine = AggregateRiskEngine(EngineConfig(
        backend="chunked",
        fused_layers=False,
        chunk_events=threads_per_block * CHUNK_SIZE,
        record_max_occurrence=False,
    ))

    result = benchmark(lambda: engine.run(baseline_workload.program, baseline_workload.yet))

    modeled = SimulatedGPU().estimate(
        FULL_SCALE_SHAPE,
        KernelConfig(threads_per_block=threads_per_block, chunk_size=CHUNK_SIZE),
    )
    benchmark.extra_info["figure"] = "5b"
    benchmark.extra_info["threads_per_block"] = threads_per_block
    benchmark.extra_info["chunk_size"] = CHUNK_SIZE
    benchmark.extra_info["modeled_full_scale_seconds"] = modeled.seconds
    benchmark.extra_info["paper_reference"] = "small gradual improvement, max 192 threads"
    assert modeled.seconds > 0
    assert result.ylt.losses.shape == (1, baseline_workload.yet.n_trials)
