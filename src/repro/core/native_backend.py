"""Native compiled-kernel backend.

:class:`NativeEngine` prices a trial window like
:class:`~repro.core.vectorized.VectorizedEngine`, but with the fused hot
path — stacked gather, occurrence terms, trial-local segment sum/max,
aggregate clip — executed by the in-repo C kernel
(``core/native/_kernels.c``), compiled on demand and called through ctypes.
The C kernel replicates NumPy's floating-point evaluation order (pairwise
summation included), so for ``dtype="float64"`` the backend is
**bit-identical** to the vectorized backend on every path the golden
conformance suite checks, and disjoint trial shards merge exactly.

``EngineConfig.dtype="float32"`` opts into a single-precision loss stack:
the random gather — the dominant memory traffic — moves half the bytes,
while every gathered value is widened to double before terms and
reductions.  Results are then bit-identical to running the float64 pipeline
on the f32-quantised stack (and agree with the full-precision run to about
1e-7 relative, the quantisation error).

Configurations the C kernel does not cover fall back to the shared NumPy
kernels *by construction* (not by approximation):

* ``use_aggregate_shortcut=False`` — the cumulative aggregate pass runs
  through :func:`~repro.core.kernels.layer_trial_losses_batch`;
* ``fused_layers=False`` — the per-layer ablation loop of the vectorized
  backend (``dtype`` only affects the stacked gather path; the reference
  ablations always compute in float64);
* no C compiler on the machine — the whole plan runs through the
  vectorized NumPy path, with a one-time warning and
  ``details["native_fallback"] = True`` (for ``float32`` the fallback
  gathers from the same quantised stack, so a machine without a compiler
  still reproduces the native tier's bits).
"""

from __future__ import annotations

import threading
import warnings

import numpy as np

from repro.core.driver import ShardPricer, ShardRun, window_pricer
from repro.core.native.build import NativeBuildError, NativeKernels, load_kernels
from repro.core.phases import PHASE_LAYER_TERMS
from repro.core.plan import ExecutionPlan
from repro.utils.timing import PhaseTimer

__all__ = ["NativeEngine"]

_fallback_warned = False
_fallback_lock = threading.Lock()


def _warn_fallback_once(reason: str) -> None:
    """Warn about the NumPy fallback once per process, not once per run."""
    global _fallback_warned
    with _fallback_lock:
        if _fallback_warned:
            return
        _fallback_warned = True
    warnings.warn(
        f"native backend: {reason}; running on the vectorized NumPy path "
        "(results are identical, only slower)",
        RuntimeWarning,
        stacklevel=3,
    )


class NativeEngine(ShardPricer):
    """C fused-kernel backend with a byte-for-byte NumPy fallback."""

    name = "native"

    def _kernels(self) -> tuple[NativeKernels | None, str | None]:
        """The loaded kernel library, or ``(None, reason)`` on fallback.

        Resolved per run (the loader memoises per content-hash), so editing
        the C source between runs rebuilds without restarting the process.
        """
        try:
            return load_kernels(), None
        except NativeBuildError as exc:
            reason = str(exc)
            _warn_fallback_once(reason)
            return None, reason

    def prepare(self, plan: ExecutionPlan, fused: bool, timer: PhaseTimer) -> ShardRun:
        config = self.config
        wants_kernel = fused and config.use_aggregate_shortcut
        kernels, fallback_reason = self._kernels() if wants_kernel else (None, None)
        float32 = config.dtype == "float32" and fused

        details = {
            "native_kernel": kernels is not None,
            "dtype": config.dtype if fused else "float64",
        }
        if kernels is None:
            if wants_kernel:
                details["native_fallback"] = True
                details["native_fallback_reason"] = fallback_reason
            # The NumPy paths consume a float64 stack; under dtype="float32"
            # they read the quantised values (widened back to f64) so fallback
            # and ablation runs reproduce the C tier's bits.
            stack: np.ndarray | None = None
            if fused:
                stack = (
                    plan.stack_f32(timer).astype(np.float64) if float32 else plan.stack(timer)
                )
            return ShardRun(window_pricer(plan, config, fused, stack=stack), details)

        details["native_threads"] = (
            config.native_threads if config.native_threads > 0 else kernels.max_threads()
        )
        details["native_openmp"] = kernels.openmp
        stack = plan.stack_f32(timer) if float32 else plan.stack(timer)
        vectors = plan.terms

        def price(event_ids: np.ndarray, offsets: np.ndarray, timer: PhaseTimer):
            with timer.phase(PHASE_LAYER_TERMS):
                return kernels.fused_rows(
                    stack,
                    event_ids,
                    offsets,
                    vectors.occurrence_retentions,
                    vectors.occurrence_limits,
                    vectors.aggregate_retentions,
                    vectors.aggregate_limits,
                    row_map=plan.row_map,
                    record_max_occurrence=config.record_max_occurrence,
                    n_threads=config.native_threads,
                )

        return ShardRun(price, details)
