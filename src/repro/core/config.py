"""Engine configuration.

One :class:`EngineConfig` object configures every backend; irrelevant fields
are simply ignored by backends that do not use them (e.g. ``chunk_events``
only matters to the chunked backend).  Keeping a single configuration type
makes the benchmark sweeps trivial: change one field, re-run, compare.

The switches that exist only for the paper's ablations are not fields: the
Section III-B lookup structures are classes in ``benchmarks/paper`` that the
ablation benchmark builds directly, the literal cumulative aggregate pass is
a function of :mod:`repro.financial.policies`, and the GPU of Figures 4-6a is
a cost model in ``benchmarks/paper``, which the figure benchmarks call.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field, replace
from typing import Any

__all__ = [
    "EngineConfig",
    "BACKEND_NAMES",
    "DTYPE_NAMES",
]

#: Names of the available engine backends.
BACKEND_NAMES: tuple[str, ...] = (
    "sequential",
    "vectorized",
    "chunked",
    "multicore",
    "native",
)

#: Loss-stack precisions of the native backend's fused gather path.
DTYPE_NAMES: tuple[str, ...] = ("float64", "float32")


def _default_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn`` (Windows)."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class EngineConfig:
    """Configuration shared by all engine backends.

    Attributes
    ----------
    backend:
        One of :data:`BACKEND_NAMES`.
    fused_layers:
        Price all layers of the program through the fused multi-layer batch
        kernel (one stacked ``(n_layers, catalog_size)`` gather per YET pass)
        instead of looping over the layers one at a time.  Honoured by the
        vectorized, chunked, multicore and native backends; the sequential
        backend always uses its per-layer reference path.  Both paths
        produce identical year losses; disabling exists for the
        fused-vs-per-layer benchmark and conformance tests.
    record_max_occurrence:
        Record each trial's largest occurrence loss (needed for OEP curves);
        small extra cost.
    record_phases:
        Record the per-phase timing breakdown (Figure 6b); adds measurement
        overhead, so benchmarks of raw speed leave it off.
    trial_shards:
        Trial-shard count of the shard driver (:mod:`repro.core.driver`):
        every backend's plan is priced as this many disjoint trial shards,
        accumulating the per-shard
        :class:`~repro.core.results.PartialResult` blocks into the final
        result.  The merged output is **bit-identical** for every shard
        count (per-trial reductions are trial-local); sharding exists to
        bound the per-pass working set (the fused gather covers one shard's
        events instead of the whole YET) and to shape the run for
        distribution.  ``1`` (the default) is the monolithic single-shard
        loop; a plan carrying its own ``n_shards`` overrides this field.
    chunk_events:
        Flattened-event chunk size of the *chunked* backend (number of event
        occurrences staged per iteration; chunks are cut at trial
        boundaries, so any chunk size produces identical results).
    replication_block:
        Replications sampled and priced per fused pass by the
        replication-batched secondary-uncertainty engine
        (:meth:`~repro.uncertainty.analysis.SecondaryUncertaintyAnalysis.run_batched`).
        ``0`` prices all replications in one pass; a positive value streams
        blocks of that many replications so the working set (the sampled
        ``replication_block * n_layers`` stack rows) stays bounded — the
        replication analogue of ``chunk_events``.  Draws are per-replication
        child streams, so the block size never changes the results.
    n_workers:
        Worker processes of the *multicore* backend (the paper's "cores").
    oversubscription:
        Trial blocks per worker of the *multicore* backend (the paper's
        "threads per core"): each shard is cut into ``n_workers *
        oversubscription`` nearly equal blocks that idle workers take in
        turn.  The block count never changes the results.
    start_method:
        Multiprocessing start method for the multicore backend; validated
        against :func:`multiprocessing.get_all_start_methods` at
        construction time so a typo fails here rather than deep inside the
        pool.  Defaults to ``"fork"`` where the platform offers it and
        ``"spawn"`` elsewhere (Windows).  It also picks the transport of
        the plan's arrays: ``fork`` workers inherit them, any other start
        method attaches them through shared memory
        (:func:`repro.core.multicore.publishes_workspace`).
    dtype:
        Precision of the loss stack the *native* backend's fused gather
        reads: ``"float64"`` (default) is bit-identical to the vectorized
        backend; ``"float32"`` stores the stack in single precision —
        halving the random-gather bandwidth that dominates the runtime —
        while still widening every gathered value to double before terms
        and reductions, so results are bit-identical to the float64
        pipeline on the f32-quantised stack (≈1e-7 relative to the full-
        precision run).  Other backends always compute in float64 and
        ignore this field.
    native_threads:
        OpenMP thread count of the *native* backend's C kernel; ``0`` (the
        default) uses the OpenMP runtime default.  The kernel's
        (row, trial) cells are independent, so the thread count never
        changes the results.
    """

    backend: str = "vectorized"
    fused_layers: bool = True
    record_max_occurrence: bool = True
    record_phases: bool = False
    trial_shards: int = 1
    chunk_events: int = 8192
    replication_block: int = 0
    n_workers: int = 1
    oversubscription: int = 1
    start_method: str = field(default_factory=_default_start_method)
    dtype: str = "float64"
    native_threads: int = 0

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKEND_NAMES}"
            )
        if self.trial_shards <= 0:
            raise ValueError(f"trial_shards must be positive, got {self.trial_shards}")
        if self.chunk_events <= 0:
            raise ValueError(f"chunk_events must be positive, got {self.chunk_events}")
        if self.replication_block < 0:
            raise ValueError(
                f"replication_block must be non-negative, got {self.replication_block}"
            )
        if self.n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {self.n_workers}")
        if self.oversubscription <= 0:
            raise ValueError(f"oversubscription must be positive, got {self.oversubscription}")
        available_start_methods = multiprocessing.get_all_start_methods()
        if self.start_method not in available_start_methods:
            raise ValueError(
                f"unknown start_method {self.start_method!r}; this platform "
                f"supports {tuple(available_start_methods)}"
            )
        if self.dtype not in DTYPE_NAMES:
            raise ValueError(
                f"unknown dtype {self.dtype!r}; expected one of {DTYPE_NAMES}"
            )
        if self.native_threads < 0:
            raise ValueError(
                f"native_threads must be non-negative, got {self.native_threads}"
            )

    def replace(self, **overrides: Any) -> "EngineConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)
