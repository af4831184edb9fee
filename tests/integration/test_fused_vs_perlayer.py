"""Integration: the fused multi-layer batch path matches the per-layer path.

Golden cross-backend conformance for the fused kernel
(:func:`repro.core.kernels.layer_trial_losses_batch`): on seeded end-to-end
workloads, every backend must produce the same Year Loss Table whether its
layers are priced through the fused stacked gather or through the original
per-layer loop — and both must match the sequential reference.  The fused
and per-layer NumPy paths perform the same floating-point operations in the
same order, so for the vectorized/chunked/multicore backends the agreement is
expected to be exact, not merely within tolerance.
"""

import numpy as np
import pytest

from repro.core.config import BACKEND_NAMES, EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.elt.table import EventLossTable
from repro.financial.terms import FinancialTerms, LayerTerms
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.yet.table import YearEventTable
from tests.conftest import compare_backends

RTOL = 1e-9


@pytest.fixture(scope="module")
def workload():
    """A seeded workload wide enough (6 layers) for the fusion to matter."""
    spec = WorkloadSpec(
        n_trials=80,
        events_per_trial=30,
        n_layers=6,
        elts_per_layer=4,
        catalog_size=1500,
        buildings_per_exposure=50,
        n_regions=8,
        fixed_trial_length=False,
        seed=77,
    )
    return WorkloadGenerator(spec).generate()


@pytest.fixture(scope="module")
def sequential_reference(workload):
    engine = AggregateRiskEngine(EngineConfig(backend="sequential"))
    return engine.run(workload.program, workload.yet)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_fused_matches_perlayer(workload, backend):
    """Fused and per-layer paths of one backend agree bit-for-bit (rtol=1e-9)."""
    base = EngineConfig(backend=backend, n_workers=2, chunk_events=129)
    fused = AggregateRiskEngine(base.replace(fused_layers=True)).run(
        workload.program, workload.yet
    )
    perlayer = AggregateRiskEngine(base.replace(fused_layers=False)).run(
        workload.program, workload.yet
    )
    np.testing.assert_allclose(fused.ylt.losses, perlayer.ylt.losses, rtol=RTOL, atol=1e-6)
    np.testing.assert_allclose(
        fused.ylt.max_occurrence_losses,
        perlayer.ylt.max_occurrence_losses,
        rtol=RTOL,
        atol=1e-6,
    )


@pytest.mark.parametrize("backend", ("vectorized", "multicore"))
def test_fused_numpy_backends_exact(workload, backend):
    """Backends whose two paths run identical float ops agree exactly.

    The chunked backend is excluded: its fused path accumulates per-trial
    sums from per-chunk partials, which rounds differently from the
    per-layer whole-stream reduction (covered by the rtol=1e-9 test above).
    """
    base = EngineConfig(backend=backend, n_workers=2, chunk_events=257)
    fused = AggregateRiskEngine(base.replace(fused_layers=True)).run(
        workload.program, workload.yet
    )
    perlayer = AggregateRiskEngine(base.replace(fused_layers=False)).run(
        workload.program, workload.yet
    )
    assert np.array_equal(fused.ylt.losses, perlayer.ylt.losses)
    assert np.array_equal(fused.ylt.max_occurrence_losses, perlayer.ylt.max_occurrence_losses)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_fused_matches_sequential_reference(workload, sequential_reference, backend):
    result = AggregateRiskEngine(
        EngineConfig(backend=backend, fused_layers=True, n_workers=2)
    ).run(workload.program, workload.yet)
    np.testing.assert_allclose(
        result.ylt.losses, sequential_reference.ylt.losses, rtol=RTOL, atol=1e-5
    )


def test_compare_backends_over_fused_path_all_five_backends(workload):
    """Acceptance: compare_backends extended over the fused path, all 5 backends."""
    results = compare_backends(
        workload.program,
        workload.yet,
        backends=BACKEND_NAMES,
        base_config=EngineConfig(n_workers=2),
        check_fused=True,
    )
    # One run per backend with the base (fused) config plus one per-layer run.
    assert len(results) == 2 * len(BACKEND_NAMES)
    assert {name for name in results if name.endswith(":per-layer")} == {
        f"{backend}:per-layer" for backend in BACKEND_NAMES
    }


def test_run_many_matches_individual_runs(workload):
    """run_many splits a batched multi-program run back exactly."""
    program = workload.program
    variant = program.subset([0, 2], name="subset-variant")
    engine = AggregateRiskEngine()
    batched = engine.run_many([program, variant], workload.yet)
    solo_program = engine.run(program, workload.yet)
    solo_variant = engine.run(variant, workload.yet)
    assert np.array_equal(batched[0].ylt.losses, solo_program.ylt.losses)
    assert np.array_equal(batched[1].ylt.losses, solo_variant.ylt.losses)
    assert batched[0].ylt.layer_names == program.layer_names
    assert batched[1].ylt.layer_names == variant.layer_names
    assert batched[0].details["batch"]["n_programs"] == 2
    assert batched[1].workload_shape.n_layers == 2


@pytest.mark.parametrize("backend", ("vectorized", "chunked"))
@pytest.mark.parametrize("n_elts", (8, 9, 15, 30))
def test_dense_overlap_book_fused_equals_perlayer_bytes(n_elts, backend):
    """Every ELT carries every event: the per-layer ELT-axis sum has
    ``n_elts`` non-zero addends per event, spread over 12 decades.

    From 8 addends up NumPy sums a *contiguous* axis pairwise, so this holds
    only while ``LayerLossMatrix.gather`` returns a C-contiguous matrix (the
    ELT axis strided, reduced row by row in ELT order — the order the fused
    path's ``scatter_net_losses`` adds in).  The generator's sparse books
    (~15 % coverage per ELT) hide the difference on most cells; this book
    cannot.
    """
    catalog_size = 300
    rng = np.random.default_rng([n_elts, 0xDE45E])
    everything = np.arange(catalog_size)
    layers = [
        Layer(
            [
                EventLossTable(
                    everything,
                    10.0 ** rng.uniform(-4, 8, size=catalog_size),
                    catalog_size,
                    FinancialTerms(retention=float(rng.uniform(0, 5)),
                                   share=float(rng.uniform(0.3, 1.0))),
                    f"elt-{k}-{e}",
                )
                for e in range(n_elts)
            ],
            LayerTerms(occurrence_retention=10.0, aggregate_retention=100.0),
            name=f"dense-{k}",
        )
        for k in range(2)
    ]
    program = ReinsuranceProgram(layers, name="dense-overlap")
    lengths = rng.integers(0, 40, size=60)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    yet = YearEventTable(rng.integers(0, catalog_size, int(offsets[-1])), offsets, catalog_size)

    base = EngineConfig(backend=backend, chunk_events=129)
    fused = AggregateRiskEngine(base.replace(fused_layers=True)).run(program, yet)
    perlayer = AggregateRiskEngine(base.replace(fused_layers=False)).run(program, yet)
    assert perlayer.details["fused_layers"] is False
    assert fused.ylt.losses.any()
    assert fused.ylt.losses.tobytes() == perlayer.ylt.losses.tobytes()
    assert (fused.ylt.max_occurrence_losses.tobytes()
            == perlayer.ylt.max_occurrence_losses.tobytes())


@pytest.mark.parametrize("shards", ("monolithic", "per-trial"))
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_one_event_trials_are_byte_equal_on_every_path(backend, shards):
    """Every trial holds one event, over 9 fully overlapping ELTs.

    A one-trial shard (or a one-event chunk) gathers a ``(k, 1)`` matrix,
    whose ELT axis is the contiguous one: an axis-0 ``sum`` reduces it
    pairwise from 8 ELTs up, which the fused path's ELT-order scatter
    never does.  Every backend, fused or per layer, at one shard or one
    shard per trial, must reproduce the fused monolithic bytes.
    """
    catalog_size, n_trials = 50, 24
    rng = np.random.default_rng(0x1E7)
    everything = np.arange(catalog_size)
    layer = Layer(
        [
            EventLossTable(everything, 10.0 ** rng.uniform(-4, 8, catalog_size), catalog_size)
            for _ in range(9)
        ],
        LayerTerms(),
        name="one-event",
    )
    yet = YearEventTable(
        rng.integers(0, catalog_size, n_trials), np.arange(n_trials + 1), catalog_size
    )
    reference = AggregateRiskEngine(EngineConfig()).run(layer, yet).ylt
    trial_shards = 1 if shards == "monolithic" else n_trials
    for fused in (True, False):
        config = EngineConfig(backend=backend, fused_layers=fused, trial_shards=trial_shards,
                              chunk_events=1, n_workers=2)
        ylt = AggregateRiskEngine(config).run(layer, yet).ylt
        assert ylt.losses.tobytes() == reference.losses.tobytes(), fused
        assert ylt.max_occurrence_losses.tobytes() == reference.max_occurrence_losses.tobytes()
