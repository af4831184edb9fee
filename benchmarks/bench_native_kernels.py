"""Native C fused-kernel tier vs the vectorized NumPy backend.

The native backend exists to retire interpreted overhead from the hot path:
one C pass per (row, trial) cell fuses the stacked gather, the occurrence
terms and the trial-local reductions, where the NumPy pipeline materialises
and re-reads an ``(n_rows, n_events)`` intermediate several times.  This
harness pins that down on a wide-row shape (800 trials x 60 events x 64
layers over a 160k catalog), chosen because the stacked gather dominates
there:

* ``test_native_bit_identity`` — the correctness half, kept on in CI: the
  native backend's year losses and maxima are bit-identical to the
  vectorized backend's for float64 — monolithic and trial-sharded — and the
  float32 tier is bit-identical to the float64 pipeline run on the
  f32-quantised stack (its defining contract) while agreeing with the full-
  precision run to well under 1e-3 relative (stack quantisation is ~6e-8
  relative per value; trials clipped right at a term threshold amplify it);
* ``test_native_kernel_speedup`` — the acceptance gate (deselected in CI
  like the other timing gates): the native plan pass is at least 2x faster
  than the vectorized pass on the same warm plan.  Emits
  ``BENCH_native_kernels.json``.

Both halves skip cleanly on machines without a C compiler — there the
backend runs its NumPy fallback, which is the *other* side of these
comparisons.
"""

import time

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.native.build import find_compiler
from repro.core.plan import PlanBuilder

from .conftest import build_workload
from .record import record_benchmark

requires_compiler = pytest.mark.skipif(
    find_compiler() is None, reason="no C compiler: the native tier falls back to NumPy"
)

SPEEDUP_THRESHOLD = 2.0

#: Trial/event axes of bench_batch_layers under a wide row axis and a catalog
#: grown toward the paper's 2M-event scale (the stack is ~80 MB of doubles).
WIDE_TRIALS = 800
WIDE_EVENTS = 60
WIDE_LAYERS = 64
WIDE_ELTS = 2
WIDE_CATALOG = 160_000


def _workload():
    return build_workload(
        n_trials=WIDE_TRIALS,
        events_per_trial=WIDE_EVENTS,
        n_layers=WIDE_LAYERS,
        elts_per_layer=WIDE_ELTS,
        catalog_size=WIDE_CATALOG,
    )


def _engine(backend: str, **overrides) -> AggregateRiskEngine:
    return AggregateRiskEngine(EngineConfig(backend=backend, **overrides))


def _best_of(n: int, fn) -> float:
    best = float("inf")
    for _ in range(n):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@requires_compiler
def test_native_bit_identity():
    workload = _workload()
    plan = PlanBuilder.from_program(workload.program, workload.yet)
    reference = _engine("vectorized").run_plan(plan)

    native = _engine("native").run_plan(plan)
    assert native.details["native_kernel"] is True
    assert np.array_equal(reference.ylt.losses, native.ylt.losses)
    assert np.array_equal(
        reference.ylt.max_occurrence_losses, native.ylt.max_occurrence_losses
    )

    # Trial-sharded execution merges exactly (the segment reductions are
    # trial-local in C exactly as in NumPy).
    sharded = _engine("native", trial_shards=4).run_plan(plan)
    assert sharded.details["trial_shards"] == 4
    assert np.array_equal(reference.ylt.losses, sharded.ylt.losses)

    # float32 contract: bit-identical to the float64 pipeline on the
    # f32-quantised stack; ~1e-7 relative to the full-precision run.
    f32 = _engine("native", dtype="float32").run_plan(plan)
    quantised = plan.stack().astype(np.float32).astype(np.float64)
    oracle = _engine("vectorized").run_plan(
        PlanBuilder.from_stack(
            quantised, plan.terms, workload.yet, row_names=plan.row_names
        )
    )
    assert np.array_equal(oracle.ylt.losses, f32.ylt.losses)
    # Against the full-precision run the only error is stack quantisation
    # (~6e-8 relative per value); the occurrence/aggregate clips amplify it
    # for the rare trial sitting exactly at a term threshold, hence the
    # looser bound here.
    np.testing.assert_allclose(
        reference.ylt.losses, f32.ylt.losses, rtol=1e-3, atol=1e-6
    )


@requires_compiler
def test_native_kernel_speedup():
    workload = _workload()
    plan = PlanBuilder.from_program(workload.program, workload.yet)
    vectorized = _engine("vectorized")
    native = _engine("native")
    native_f32 = _engine("native", dtype="float32")

    # Warm runs: build + cache the stack (and its f32 quantisation) on the
    # plan, compile/load the C kernels, and cross-check bits while at it.
    baseline_result = vectorized.run_plan(plan)
    native_result = native.run_plan(plan)
    native_f32.run_plan(plan)
    assert native_result.details["native_kernel"] is True
    assert np.array_equal(baseline_result.ylt.losses, native_result.ylt.losses)

    baseline = _best_of(3, lambda: vectorized.run_plan(plan))
    candidate = _best_of(3, lambda: native.run_plan(plan))
    candidate_f32 = _best_of(3, lambda: native_f32.run_plan(plan))

    speedup = baseline / candidate
    record_benchmark(
        "native_kernels",
        backend="native",
        shape={
            "n_trials": WIDE_TRIALS,
            "events_per_trial": WIDE_EVENTS,
            "n_layers": WIDE_LAYERS,
            "elts_per_layer": WIDE_ELTS,
            "catalog_size": WIDE_CATALOG,
        },
        baseline_seconds=baseline,
        candidate_seconds=candidate,
        threshold=SPEEDUP_THRESHOLD,
        meta={
            "baseline": "vectorized NumPy plan pass (warm plan, cached stack)",
            "candidate": "native C fused kernel (float64)",
            "native_float32_seconds": candidate_f32,
            "native_float32_speedup": baseline / candidate_f32,
            "native_openmp": native_result.details.get("native_openmp"),
            "native_threads": native_result.details.get("native_threads"),
        },
    )
    assert speedup >= SPEEDUP_THRESHOLD, (
        f"native kernel is only {speedup:.2f}x the vectorized pass "
        f"({candidate * 1e3:.1f}ms vs {baseline * 1e3:.1f}ms)"
    )
