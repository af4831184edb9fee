"""Golden conformance of the unified plan pipeline (plan vs plan).

The original suite pinned the plan pipeline bit-for-bit against the
pre-plan per-backend dispatch; that legacy dispatch has now been deleted as
scheduled, so the golden coverage is retargeted at invariants *within* the
plan pipeline — on seeded end-to-end workloads, these must hold exactly
(not merely within tolerance) unless noted:

* the facade's ``run`` equals explicit ``PlanBuilder`` lowering + ``run_plan``
  on every backend (the facade adds no arithmetic);
* the fused multi-layer path and the ``fused_layers=False`` per-layer
  ablation agree bit-for-bit on every backend (same floating-point
  operations in the same order);
* the two multicore transports (shared-memory vs pickling/inheritance) and
  the warm workspace-reuse path agree bit-for-bit (a transport moves bytes,
  it must never touch them);
* ``run_many`` equals the concatenate-run-split recipe, with and without
  row deduplication;
* ``run_stacked`` equals the direct fused-kernel evaluation of the same
  stack;
* the telescoped-shortcut vs cumulative aggregate-terms ablation agrees at
  1e-9 relative tolerance (different reduction order, same maths).
"""

import numpy as np
import pytest

from repro.core.config import BACKEND_NAMES, EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.kernels import layer_trial_losses_batch
from repro.core.plan import PlanBuilder
from repro.financial.terms import LayerTerms
from repro.portfolio.program import ReinsuranceProgram
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

#: Multicore runs use two workers so the block-stitching path is exercised.
N_WORKERS = 2


@pytest.fixture(scope="module")
def workload():
    """A seeded workload wide enough (5 layers) for fusion and splitting."""
    spec = WorkloadSpec(
        n_trials=60,
        events_per_trial=25,
        n_layers=5,
        elts_per_layer=3,
        catalog_size=1200,
        buildings_per_exposure=40,
        n_regions=8,
        fixed_trial_length=False,
        seed=2012,
    )
    return WorkloadGenerator(spec).generate()


def _assert_identical(lhs, rhs):
    assert np.array_equal(lhs.ylt.losses, rhs.ylt.losses)
    lhs_max = lhs.ylt.max_occurrence_losses
    rhs_max = rhs.ylt.max_occurrence_losses
    if rhs_max is None:
        assert lhs_max is None
    else:
        assert np.array_equal(lhs_max, rhs_max)
    assert lhs.ylt.layer_names == rhs.ylt.layer_names


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_facade_run_equals_explicit_plan(workload, backend):
    """`run` == lowering through PlanBuilder + run_plan, exactly."""
    engine = AggregateRiskEngine(EngineConfig(backend=backend, n_workers=N_WORKERS))
    via_facade = engine.run(workload.program, workload.yet)
    via_plan = engine.run_plan(
        PlanBuilder.from_program(workload.program, workload.yet)
    )
    _assert_identical(via_facade, via_plan)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_fused_vs_perlayer_plan_bit_identical(workload, backend):
    """The fused path and the per-layer ablation agree bit for bit.

    The fused stacked gather performs the same floating-point operations in
    the same order as the per-layer loop, so the agreement is exact (the
    sequential and gpu reference backends run their per-layer path under
    both configs and are trivially identical).
    """
    base = EngineConfig(backend=backend, n_workers=N_WORKERS)
    fused = AggregateRiskEngine(base.replace(fused_layers=True)).run(
        workload.program, workload.yet
    )
    perlayer = AggregateRiskEngine(base.replace(fused_layers=False)).run(
        workload.program, workload.yet
    )
    _assert_identical(fused, perlayer)


@pytest.mark.parametrize("backend", ("vectorized", "chunked"))
def test_shortcut_vs_cumulative_plan_ablation(workload, backend):
    """use_aggregate_shortcut toggling never moves year losses beyond 1e-9.

    The telescoped shortcut reassociates the aggregate-terms reduction, so
    the two paths are equivalent mathematically but not bit-for-bit.
    """
    base = EngineConfig(backend=backend, n_workers=N_WORKERS)
    shortcut = AggregateRiskEngine(base.replace(use_aggregate_shortcut=True)).run(
        workload.program, workload.yet
    )
    cumulative = AggregateRiskEngine(base.replace(use_aggregate_shortcut=False)).run(
        workload.program, workload.yet
    )
    np.testing.assert_allclose(
        shortcut.ylt.losses, cumulative.ylt.losses, rtol=1e-9, atol=1e-6
    )


@pytest.mark.parametrize("shared_memory", ("on", "off"))
def test_multicore_transports_bit_identical(workload, shared_memory):
    """Shared-memory and pickling transports agree exactly.

    The transport decides how the fused stack and the YET columns reach the
    workers; it must never change a byte of what the kernels read.  The
    pickling/inheritance run is the reference.
    """
    reference = AggregateRiskEngine(
        EngineConfig(backend="multicore", n_workers=N_WORKERS, shared_memory="off")
    ).run(workload.program, workload.yet)
    candidate = AggregateRiskEngine(
        EngineConfig(
            backend="multicore", n_workers=N_WORKERS, shared_memory=shared_memory
        )
    ).run(workload.program, workload.yet)
    _assert_identical(candidate, reference)


def test_multicore_workspace_reuse_bit_identical(workload):
    """The warm workspace-reuse transport equals cold publication exactly."""
    engine = AggregateRiskEngine(
        EngineConfig(backend="multicore", n_workers=N_WORKERS, shared_memory="on")
    )
    engine.retain_shared_workspaces(True)
    try:
        plan = PlanBuilder.from_program(workload.program, workload.yet)
        cold = engine.run_plan(plan)
        warm = engine.run_plan(plan)
        assert cold.details["workspace_reused"] is False
        assert warm.details["workspace_reused"] is True
        _assert_identical(warm, cold)
    finally:
        engine.close()


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("dedupe", (True, False), ids=["dedupe", "no-dedupe"])
def test_run_many_vs_combined_run_bit_identical(workload, backend, dedupe):
    """run_many == concatenate -> run -> split, exactly, on all backends.

    The term variants share their layers' ELT objects, so the dedupe=True
    case exercises the row_map expansion against the fully expanded
    combined-program stack.
    """
    program = workload.program
    variant = ReinsuranceProgram(
        [
            layer.with_terms(
                LayerTerms(
                    occurrence_retention=layer.terms.occurrence_retention * 1.5,
                    occurrence_limit=layer.terms.occurrence_limit,
                    aggregate_retention=layer.terms.aggregate_retention,
                    aggregate_limit=layer.terms.aggregate_limit,
                )
            )
            for layer in program.layers
        ],
        name="variant",
    )
    engine = AggregateRiskEngine(EngineConfig(backend=backend, n_workers=N_WORKERS))
    results = engine.run_many([program, variant], workload.yet, dedupe=dedupe)

    # The reference recipe: one combined program, one run, split back.
    combined = ReinsuranceProgram(
        list(program.layers) + list(variant.layers), name="batch"
    )
    reference = engine.run(combined, workload.yet)
    n = program.n_layers
    assert np.array_equal(results[0].ylt.losses, reference.ylt.losses[:n])
    assert np.array_equal(results[1].ylt.losses, reference.ylt.losses[n:])
    assert results[0].details["batch"]["n_programs"] == 2
    assert results[1].details["batch"]["total_layers"] == combined.n_layers


@pytest.mark.parametrize("backend", ("vectorized", "chunked", "multicore"))
def test_run_stacked_vs_direct_kernel_bit_identical(workload, backend):
    """run_stacked == a direct fused-kernel call over the same stack.

    The synthetic-plan lowering adds bookkeeping only: a single fused-kernel
    call over the whole YET (vectorized/chunked) or that same call per trial
    block (multicore).  A single multicore worker owns one block spanning
    every trial, so all three backends must reproduce the direct call bit
    for bit.
    """
    program = workload.program
    stack = np.stack(
        [layer.loss_matrix().combined_net_losses() for layer in program.layers]
    )
    terms = [layer.terms for layer in program.layers]
    engine = AggregateRiskEngine(EngineConfig(backend=backend, n_workers=1))
    result = engine.run_stacked(stack, terms, workload.yet)

    config = engine.config
    expected, expected_max = layer_trial_losses_batch(
        (),
        workload.yet.event_ids,
        workload.yet.trial_offsets,
        terms,
        use_shortcut=config.use_aggregate_shortcut,
        record_max_occurrence=config.record_max_occurrence,
        stack=stack,
        chunk_events=config.chunk_events if backend == "chunked" else None,
    )
    assert np.array_equal(result.ylt.losses, expected)
    assert np.array_equal(result.ylt.max_occurrence_losses, expected_max)


def test_run_stacked_multicore_worker_invariance(workload):
    """Sharding the stacked rows over workers never moves the results.

    Per-block accumulation may round differently from the whole-YET pass in
    the last couple of bits, so worker counts are compared at 1e-12 relative
    tolerance.
    """
    program = workload.program
    stack = np.stack(
        [layer.loss_matrix().combined_net_losses() for layer in program.layers]
    )
    terms = [layer.terms for layer in program.layers]
    reference = None
    for n_workers in (1, 2, 3):
        engine = AggregateRiskEngine(
            EngineConfig(backend="multicore", n_workers=n_workers)
        )
        losses = engine.run_stacked(stack, terms, workload.yet).ylt.losses
        if reference is None:
            reference = losses
        else:
            np.testing.assert_allclose(losses, reference, rtol=1e-12)


@pytest.mark.parametrize("backend", ("sequential", "gpu"))
def test_run_stacked_still_rejected_on_reference_backends(workload, backend):
    engine = AggregateRiskEngine(EngineConfig(backend=backend))
    stack = np.zeros((1, workload.program.catalog_size))
    with pytest.raises(ValueError, match="stacked execution path"):
        engine.run_stacked(stack, [LayerTerms()], workload.yet)


def test_dedupe_and_no_dedupe_bit_identical(workload):
    """Row deduplication may never change a single bit of any program's YLT."""
    program = workload.program
    variants = [program] + [
        ReinsuranceProgram(
            [
                layer.with_terms(
                    LayerTerms(occurrence_retention=float(50_000 * i))
                )
                for layer in program.layers
            ],
            name=f"variant-{i}",
        )
        for i in range(1, 4)
    ]
    engine = AggregateRiskEngine(EngineConfig())
    deduped = engine.run_many(variants, workload.yet, dedupe=True)
    expanded = engine.run_many(variants, workload.yet, dedupe=False)
    assert deduped[0].details["plan"]["n_unique_rows"] == program.n_layers
    assert expanded[0].details["plan"]["n_unique_rows"] == 4 * program.n_layers
    for lhs, rhs in zip(deduped, expanded):
        assert np.array_equal(lhs.ylt.losses, rhs.ylt.losses)


def test_uncertainty_batched_path_unchanged_by_plan_lowering(workload):
    """The stacked uncertainty engine is bit-stable across the refactor.

    run_batched == replay was PR 2's golden guarantee; it must survive
    run_stacked's lowering to a synthetic plan.
    """
    from repro.uncertainty import (
        SecondaryUncertaintyAnalysis,
        UncertainEventLossTable,
        UncertainLayer,
    )

    layers = [
        UncertainLayer(
            elts=[UncertainEventLossTable.from_elt(elt, cv=0.4) for elt in layer.elts],
            terms=layer.terms,
            name=layer.name,
        )
        for layer in workload.program.layers[:2]
    ]
    analysis = SecondaryUncertaintyAnalysis(
        layers, config=EngineConfig(record_max_occurrence=False)
    )
    batched = analysis.run_batched(workload.yet, 8, rng=99, method="batched")
    replay = analysis.run_batched(workload.yet, 8, rng=99, method="replay")
    for name in replay:
        np.testing.assert_allclose(
            batched[name].values, replay[name].values, rtol=1e-9, atol=0.0
        )
