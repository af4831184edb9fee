"""Figure 5a — optimised (chunked) GPU kernel: execution time vs chunk size.

Paper observation: with a chunk size of 4 the optimised kernel reduces the
runtime from 38.47 s (basic kernel) to 22.72 s — a 1.7x improvement; the curve
is flat up to a chunk size of ~12 and deteriorates rapidly beyond that as the
shared-memory staging buffers overflow into global memory.

Reproduction: the device model projects the full-scale kernel time per chunk
size (64 threads per block, the largest configuration whose staging fits
shared memory at chunk 12); the projections are attached to ``extra_info``.
The benchmark times the optimised kernel's year-loss computation on the
scaled workload — the per-layer ``chunked`` path with
``chunk_events = threads_per_block * chunk_size``.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.workloads.presets import PAPER_FULL_SCALE

from .paper.device import KernelConfig, SimulatedGPU

CHUNK_SIZES = (1, 2, 4, 8, 12, 16, 20, 24)
THREADS_PER_BLOCK = 64

FULL_SCALE_SHAPE = PAPER_FULL_SCALE.shape()


@pytest.mark.benchmark(group="fig5a-gpu-chunk-size")
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_fig5a_optimised_gpu_time_vs_chunk_size(benchmark, baseline_workload, chunk_size):
    engine = AggregateRiskEngine(EngineConfig(
        backend="chunked",
        fused_layers=False,
        chunk_events=THREADS_PER_BLOCK * chunk_size,
        record_max_occurrence=False,
    ))

    result = benchmark(lambda: engine.run(baseline_workload.program, baseline_workload.yet))

    modeled = SimulatedGPU().estimate(
        FULL_SCALE_SHAPE,
        KernelConfig(threads_per_block=THREADS_PER_BLOCK, chunk_size=chunk_size),
    )
    benchmark.extra_info["figure"] = "5a"
    benchmark.extra_info["chunk_size"] = chunk_size
    benchmark.extra_info["threads_per_block"] = THREADS_PER_BLOCK
    benchmark.extra_info["modeled_full_scale_seconds"] = modeled.seconds
    benchmark.extra_info["spill_fraction"] = modeled.spill_fraction
    benchmark.extra_info["paper_reference"] = "22.72 s at chunk size 4 (vs 38.47 s basic)"
    assert modeled.seconds > 0
    assert result.ylt.losses.shape == (1, baseline_workload.yet.n_trials)
