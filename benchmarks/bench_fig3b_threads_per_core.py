"""Figure 3b — multi-core CPU: execution time vs threads per core.

Paper configuration: all 8 cores active, threads per core varied up to 512;
the runtime drops from 135 s to 125 s at 256 threads per core and then shows
diminishing returns — oversubscription recovers a moderate amount of time by
overlapping memory stalls and smoothing load imbalance.

Scaled reproduction: the ``multicore`` backend with the oversubscription
factor (trial blocks per worker, handed to whichever worker is idle) playing
the role of "threads per core".  The sweep uses all available cores.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.multicore import available_cores

OVERSUBSCRIPTION = (1, 4, 16, 64, 256)


@pytest.mark.benchmark(group="fig3b-threads-per-core")
@pytest.mark.parametrize("oversubscription", OVERSUBSCRIPTION)
def test_fig3b_multicore_time_vs_threads_per_core(benchmark, parallel_workload, oversubscription):
    n_workers = max(available_cores(), 1)
    engine = AggregateRiskEngine(EngineConfig(
        backend="multicore",
        n_workers=n_workers,
        oversubscription=oversubscription,
        record_max_occurrence=False,
    ))

    result = benchmark.pedantic(
        lambda: engine.run(parallel_workload.program, parallel_workload.yet),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )

    benchmark.extra_info["figure"] = "3b"
    benchmark.extra_info["threads_per_core"] = oversubscription
    benchmark.extra_info["n_cores"] = n_workers
    benchmark.extra_info["n_trials"] = parallel_workload.yet.n_trials
    assert result.ylt.n_trials == parallel_workload.yet.n_trials
