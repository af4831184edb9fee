"""Integration: every backend produces the identical Year Loss Table.

This is the library's core correctness guarantee: the
sequential backend is the literal transcription of the paper's algorithm, and
every optimised backend must agree with it on realistic end-to-end workloads
produced by the full synthetic pipeline.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from tests.conftest import compare_backends


@pytest.fixture(scope="module")
def workload():
    """A medium workload with several layers, variable trial lengths and FX terms."""
    spec = WorkloadSpec(
        n_trials=120,
        events_per_trial=40,
        n_layers=3,
        elts_per_layer=5,
        catalog_size=2000,
        buildings_per_exposure=60,
        n_regions=16,
        fixed_trial_length=False,
        seed=2024,
    )
    return WorkloadGenerator(spec).generate()


@pytest.fixture(scope="module")
def reference(workload):
    engine = AggregateRiskEngine(EngineConfig(backend="sequential"))
    return engine.run(workload.program, workload.yet)


CONFIGS = [
    EngineConfig(backend="vectorized"),
    EngineConfig(backend="chunked", chunk_events=37),
    EngineConfig(backend="chunked", chunk_events=4096),
    EngineConfig(backend="multicore", n_workers=2),
    EngineConfig(backend="multicore", n_workers=3, oversubscription=4),
    EngineConfig(backend="native"),
    # The Figure 4/5 benchmarks time the simulated GPU kernels' year losses
    # as these per-layer configurations (basic kernel; optimised kernel at
    # 32 threads per block x chunk 4).
    EngineConfig(backend="vectorized", fused_layers=False),
    EngineConfig(backend="chunked", fused_layers=False, chunk_events=32 * 4),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.backend}"
                         f"-{'fused' if c.fused_layers else 'per-layer'}"
                         f"-{c.n_workers}w-{c.chunk_events}")
def test_backend_matches_sequential_reference(workload, reference, config):
    result = AggregateRiskEngine(config).run(workload.program, workload.yet)
    np.testing.assert_allclose(result.ylt.losses, reference.ylt.losses, rtol=1e-9, atol=1e-5)
    if config.record_max_occurrence and reference.ylt.max_occurrence_losses is not None:
        np.testing.assert_allclose(
            result.ylt.max_occurrence_losses,
            reference.ylt.max_occurrence_losses,
            rtol=1e-9,
            atol=1e-5,
        )


def test_year_losses_bounded_by_aggregate_limits(workload, reference):
    for layer_index, layer in enumerate(workload.program):
        limit = layer.terms.aggregate_limit
        assert (reference.ylt.losses[layer_index] <= limit + 1e-6).all()


def test_year_losses_nonzero_somewhere(reference):
    assert reference.ylt.losses.sum() > 0


def test_compare_backends_helper_on_realistic_workload(workload):
    results = compare_backends(
        workload.program, workload.yet,
        backends=("vectorized", "chunked", "multicore"),
        base_config=EngineConfig(n_workers=2),
    )
    assert len(results) == 3
