"""Figure 6a — summary: total execution time of every implementation.

Paper values for 1 million trials x 1000 events x 15 ELTs (best tuning per
implementation): sequential CPU (single core of an i7-2600), multi-core CPU
(~125–135 s), basic GPU 38.47 s (3.2x vs the multi-core CPU), optimised GPU
22.72 s (5.4x).

Reproduction, two complementary views:

* **Measured** — each implementation's year-loss computation runs the same
  scaled workload under the benchmark (sequential runs a further-reduced
  trial count because a pure Python triple loop at 3M lookups per round would
  dominate the session; its measured time is normalised per trial in
  ``extra_info``).  The two GPU kernels run as their equivalent per-layer
  configurations: basic as ``vectorized``, optimised as ``chunked`` with
  ``chunk_events = 64 threads x chunk 4``.
* **Projected** — ``benchmarks.paper.projection.project_summary`` projects the
  full-scale runtime of all four implementations from the analytical CPU and
  GPU cost models and attached to ``extra_info`` (the ``--benchmark-json``
  record); ROADMAP item 8 tracks measuring, not projecting, these claims.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.multicore import available_cores
from repro.workloads.presets import PAPER_FULL_SCALE

from .conftest import build_workload
from .paper.projection import project_summary

FULL_SCALE_SHAPE = PAPER_FULL_SCALE.shape()

#: (label, config, sequential-style trial budget)
IMPLEMENTATIONS = (
    ("sequential_cpu", EngineConfig(backend="sequential", record_max_occurrence=False), 200),
    ("multicore_cpu", EngineConfig(backend="multicore",
                                   n_workers=max(available_cores(), 1),
                                   record_max_occurrence=False), 2000),
    ("basic_gpu", EngineConfig(backend="vectorized", fused_layers=False,
                               record_max_occurrence=False), 2000),
    ("optimised_gpu", EngineConfig(backend="chunked", fused_layers=False, chunk_events=64 * 4,
                                   record_max_occurrence=False), 2000),
)


@pytest.mark.benchmark(group="fig6a-summary")
@pytest.mark.parametrize("label,config,n_trials", IMPLEMENTATIONS,
                         ids=[impl[0] for impl in IMPLEMENTATIONS])
def test_fig6a_total_time_per_implementation(benchmark, label, config, n_trials):
    workload = build_workload()
    yet = workload.yet.slice_trials(0, n_trials)
    engine = AggregateRiskEngine(config)

    result = benchmark.pedantic(
        lambda: engine.run(workload.program, yet),
        rounds=2,
        iterations=1,
        warmup_rounds=0,
    )

    projections = project_summary(FULL_SCALE_SHAPE, n_cores=8)
    benchmark.extra_info["figure"] = "6a"
    benchmark.extra_info["implementation"] = label
    benchmark.extra_info["measured_trials"] = n_trials
    benchmark.extra_info["measured_seconds_per_trial"] = result.wall_seconds / n_trials
    benchmark.extra_info["projected_full_scale_seconds"] = projections[label]
    benchmark.extra_info["paper_full_scale_seconds"] = {
        "sequential_cpu": 325.0,   # implied by 2.6x speedup over ~125 s
        "multicore_cpu": 125.0,
        "basic_gpu": 38.47,
        "optimised_gpu": 22.72,
    }[label]
    assert result.ylt.n_trials == n_trials


def test_fig6a_projected_ordering_matches_paper():
    """The projected full-scale times preserve the paper's ranking and factors."""
    projections = project_summary(FULL_SCALE_SHAPE, n_cores=8)
    assert (
        projections["sequential_cpu"]
        > projections["multicore_cpu"]
        > projections["basic_gpu"]
        > projections["optimised_gpu"]
    )
    assert projections["multicore_cpu"] / projections["basic_gpu"] == pytest.approx(3.2, rel=0.3)
    assert projections["multicore_cpu"] / projections["optimised_gpu"] == pytest.approx(5.4, rel=0.3)
