"""Shared fixtures and helpers for the benchmark harness.

Every benchmark module regenerates one of the paper's tables or figures on a
*proportionally scaled* workload (see the module docstrings).  Workload generation is deterministic and cached per session so
that the sweeps measure the engine, not the generator.

Run the full harness with::

    pytest benchmarks/ --benchmark-only

Each benchmark attaches the sweep parameters (and, for the GPU experiments,
the modelled full-scale kernel time) to ``benchmark.extra_info`` so that the
JSON output of ``--benchmark-json`` carries each figure's series and
projection (the headline benchmarks also write ``BENCH_*.json`` records; see
``benchmarks/record.py``).
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.workloads.generator import AggregateWorkload, WorkloadGenerator, WorkloadSpec

# --------------------------------------------------------------------------- #
# Scaled workload dimensions (paper values in comments)
# --------------------------------------------------------------------------- #
#: Trials used by the CPU-oriented sweeps (paper: 1,000,000).
BENCH_TRIALS = 2000
#: Trials used by the parallel-speedup sweeps (larger so that process start-up
#: does not dominate; paper: 1,000,000).
BENCH_TRIALS_PARALLEL = 8000
#: Events per trial (paper: 1000).
BENCH_EVENTS = 100
#: ELTs per layer (paper: 15).
BENCH_ELTS_PER_LAYER = 15
#: Catalog size (paper: 2,000,000).
BENCH_CATALOG = 40_000

_WORKLOAD_CACHE: Dict[Tuple, AggregateWorkload] = {}


def build_workload(
    n_trials: int = BENCH_TRIALS,
    events_per_trial: int = BENCH_EVENTS,
    n_layers: int = 1,
    elts_per_layer: int = BENCH_ELTS_PER_LAYER,
    catalog_size: int = BENCH_CATALOG,
    seed: int = 7_2012,
) -> AggregateWorkload:
    """Build (and cache) a deterministic benchmark workload."""
    key = (n_trials, events_per_trial, n_layers, elts_per_layer, catalog_size, seed)
    if key not in _WORKLOAD_CACHE:
        spec = WorkloadSpec(
            n_trials=n_trials,
            events_per_trial=events_per_trial,
            n_layers=n_layers,
            elts_per_layer=elts_per_layer,
            catalog_size=catalog_size,
            buildings_per_exposure=60,
            n_regions=32,
            fixed_trial_length=True,
            seed=seed,
        )
        _WORKLOAD_CACHE[key] = WorkloadGenerator(spec).generate()
    return _WORKLOAD_CACHE[key]


def run_engine(workload: AggregateWorkload, config: EngineConfig):
    """Run the engine once and return the result (used inside benchmarks)."""
    return AggregateRiskEngine(config).run(workload.program, workload.yet)


@pytest.fixture(scope="session")
def baseline_workload() -> AggregateWorkload:
    """The default single-layer benchmark workload (2000 x 100 x 15)."""
    return build_workload()


@pytest.fixture(scope="session")
def parallel_workload() -> AggregateWorkload:
    """The larger workload used by the multi-core sweeps (8000 x 100 x 15)."""
    return build_workload(n_trials=BENCH_TRIALS_PARALLEL)
