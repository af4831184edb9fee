#!/usr/bin/env python3
"""Backend comparison: run every engine backend on one workload.

Reproduces, at laptop scale, the comparison behind Figure 6a of the paper:
the same aggregate analysis executed by the sequential reference, the
vectorized and chunked single-process backends, the multi-process backend and
the native C backend.  The script verifies that all backends produce the
identical Year Loss Table and reports their measured wall-clock times.  The
GPU bars of Figure 6a come from the analytical device model
(:mod:`repro.parallel.device`): the script prints its modelled kernel time
for this workload's shape and the full-scale projections (1M trials x 1000
events x 15 ELTs) that EXPERIMENTS.md compares against the paper's numbers.

Run with::

    python examples/backend_comparison.py
"""

from __future__ import annotations

import numpy as np

from repro import AggregateRiskEngine, EngineConfig
from repro.core.multicore import available_cores
from repro.core.projection import project_summary
from repro.parallel.device import KernelConfig, SimulatedGPU
from repro.workloads import PAPER_FULL_SCALE, WorkloadGenerator, bench_spec


def main() -> None:
    # The sequential reference is pure Python, so the comparison workload is
    # kept modest; the relative ordering is what matters.
    spec = bench_spec(seed=4242).scaled(n_trials=500)
    workload = WorkloadGenerator(spec).generate()
    print("Workload:", workload.summary(), "\n")

    configs = {
        "sequential (reference)": EngineConfig(backend="sequential"),
        "vectorized": EngineConfig(backend="vectorized"),
        "chunked": EngineConfig(backend="chunked", chunk_events=16_384),
        f"multicore ({max(available_cores(), 1)} workers)": EngineConfig(
            backend="multicore", n_workers=max(available_cores(), 1)
        ),
        "native": EngineConfig(backend="native"),
    }

    reference_losses = None
    print(f"{'backend':<28}{'wall (s)':>12}{'speedup':>10}")
    baseline = None
    for name, config in configs.items():
        result = AggregateRiskEngine(config).run(workload.program, workload.yet)
        if reference_losses is None:
            reference_losses = result.ylt.losses
            baseline = result.wall_seconds
        else:
            assert np.allclose(result.ylt.losses, reference_losses, rtol=1e-9, atol=1e-6), (
                f"backend {name} disagrees with the sequential reference"
            )
        print(f"{name:<28}{result.wall_seconds:>12.4f}{baseline / result.wall_seconds:>10.1f}x")

    print("\nAll backends agree with the sequential reference (checked trial by trial).")

    gpu = SimulatedGPU()
    for name, kernel in (
        ("basic", KernelConfig(threads_per_block=256, optimised=False)),
        ("optimised", KernelConfig(threads_per_block=64, chunk_size=4)),
    ):
        modelled = gpu.estimate(workload.shape, kernel).seconds
        print(f"modelled {name} GPU kernel on this workload: {modelled:.4f} s")

    projections = project_summary(PAPER_FULL_SCALE.shape(), n_cores=8)
    print("\nProjected full-scale runtimes (1M trials x 1000 events x 15 ELTs):")
    paper = {"sequential_cpu": "~325", "multicore_cpu": "125-135", "basic_gpu": "38.47",
             "optimised_gpu": "22.72"}
    for name, seconds in projections.items():
        print(f"  {name:<16}{seconds:>10.1f} s    (paper: {paper[name]} s)")


if __name__ == "__main__":
    main()
