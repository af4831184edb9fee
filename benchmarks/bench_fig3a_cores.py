"""Figure 3a — multi-core CPU: execution time vs number of cores.

Paper configuration: one OpenMP thread per core, cores varied 1..8 on an Intel
i7-2600; observed speedups 1.5x (2 cores), 2.2x (4), 2.6x (8) — limited by
memory bandwidth.

Scaled reproduction: the ``multicore`` backend (one worker process per
"core", one trial block per worker) on an 8000-trial workload.  The full 1/2/4/8
sweep is always run; on machines with fewer physical cores than workers the
measured curve flattens (workers time-share the cores), in which case the
attached analytical memory-bandwidth model
(:func:`benchmarks.paper.projection.memory_bound_speedup_model`) provides the
speedup-shape comparison against the paper (attached to ``extra_info``).
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.multicore import available_cores

from .paper.projection import memory_bound_speedup_model

CORE_COUNTS = (1, 2, 4, 8)


@pytest.mark.benchmark(group="fig3a-cores")
@pytest.mark.parametrize("n_cores", CORE_COUNTS)
def test_fig3a_multicore_time_vs_cores(benchmark, parallel_workload, n_cores):
    engine = AggregateRiskEngine(EngineConfig(
        backend="multicore",
        n_workers=n_cores,
        record_max_occurrence=False,
    ))

    result = benchmark.pedantic(
        lambda: engine.run(parallel_workload.program, parallel_workload.yet),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )

    benchmark.extra_info["figure"] = "3a"
    benchmark.extra_info["n_cores"] = n_cores
    benchmark.extra_info["physical_cores_available"] = available_cores()
    benchmark.extra_info["n_trials"] = parallel_workload.yet.n_trials
    benchmark.extra_info["paper_speedup"] = {1: 1.0, 2: 1.5, 4: 2.2, 8: 2.6}.get(n_cores)
    benchmark.extra_info["modelled_speedup"] = memory_bound_speedup_model(n_cores)
    assert result.ylt.n_trials == parallel_workload.yet.n_trials
