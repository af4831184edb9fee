#!/usr/bin/env python3
"""Backend comparison: run every engine backend on one workload.

Reproduces, at laptop scale, the comparison behind Figure 6a of the paper:
the same aggregate analysis executed by the sequential reference, the
vectorized and chunked single-process backends, the multi-process backend and
the native C backend.  The script verifies that all backends produce the
identical Year Loss Table and reports their measured wall-clock times.  The
GPU bars of Figure 6a are not measured here; ``benchmarks/bench_fig6a_summary.py``
attaches their cost-model projections next to its timed runs.

Run with::

    python examples/backend_comparison.py
"""

from __future__ import annotations

import numpy as np

from repro import AggregateRiskEngine, EngineConfig
from repro.core.multicore import available_cores
from repro.workloads import WorkloadGenerator, bench_spec


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
    print("GPU bars (projected, not measured): benchmarks/bench_fig6a_summary.py")


if __name__ == "__main__":
    main()
