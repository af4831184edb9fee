"""Shared pytest fixtures.

The expensive fixtures (synthetic workloads) are session-scoped: the workload
generator is deterministic, so sharing one instance across tests does not
introduce coupling, and it keeps the suite fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.generator import CatalogGenerator
from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.elt.table import EventLossTable
from repro.financial.terms import FinancialTerms, LayerTerms
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.presets import tiny_spec
from repro.yet.table import YearEventTable


@pytest.fixture(scope="session")
def tiny_workload():
    """A small but fully realistic end-to-end workload (64 trials, 2 layers)."""
    return WorkloadGenerator(tiny_spec()).generate()


@pytest.fixture(scope="session")
def tiny_reference_result(tiny_workload):
    """The sequential (reference) engine result for the tiny workload."""
    engine = AggregateRiskEngine(EngineConfig(backend="sequential", record_max_occurrence=True))
    return engine.run(tiny_workload.program, tiny_workload.yet)


@pytest.fixture(scope="session")
def small_catalog():
    """A 2000-event catalog with ~50 expected occurrences per year."""
    return CatalogGenerator(n_regions=8).generate_with_rate(2000, events_per_year=50.0, rng=123)


@pytest.fixture()
def rng():
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(987)


@pytest.fixture()
def quantile_calls(monkeypatch):
    """The ``axis`` keyword of every ``np.quantile`` call made under the fixture.

    Pins the call *shape* of the batched risk-metrics kernel: one axis-1 call
    per block of rows, never one scalar call per layer and level.
    """
    calls = []
    real_quantile = np.quantile

    def counting_quantile(*args, **kwargs):
        calls.append(kwargs.get("axis"))
        return real_quantile(*args, **kwargs)

    monkeypatch.setattr(np, "quantile", counting_quantile)
    return calls


def make_manual_layer(catalog_size: int = 100) -> tuple[Layer, YearEventTable]:
    """A hand-built layer + YET whose year losses can be verified by hand.

    Two ELTs over a 100-event catalog; three trials with known events.  Used
    by several test modules (imported as a plain helper, not a fixture, so it
    can be parameterised).
    """
    elt_a = EventLossTable(
        event_ids=np.array([1, 2, 3]),
        losses=np.array([100.0, 200.0, 300.0]),
        catalog_size=catalog_size,
        terms=FinancialTerms(),
        name="elt-a",
    )
    elt_b = EventLossTable(
        event_ids=np.array([2, 4]),
        losses=np.array([50.0, 500.0]),
        catalog_size=catalog_size,
        terms=FinancialTerms(),
        name="elt-b",
    )
    layer = Layer([elt_a, elt_b], LayerTerms(), name="manual-layer")
    yet = YearEventTable.from_trials(
        trials=[[1, 2], [4], [3, 2, 1]],
        catalog_size=catalog_size,
    )
    return layer, yet


@pytest.fixture()
def manual_layer_and_yet():
    """Fixture wrapper around :func:`make_manual_layer`."""
    return make_manual_layer()


@pytest.fixture()
def manual_program(manual_layer_and_yet):
    """A one-layer program around the manual layer."""
    layer, yet = manual_layer_and_yet
    return ReinsuranceProgram([layer], name="manual-program"), yet
