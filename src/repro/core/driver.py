"""The one shard driver: how an :class:`ExecutionPlan` becomes a result.

The paper's engine is one algorithm run under different parallel mappings;
the mapping is the only thing a backend may differ in.  :func:`run_plan` is
therefore the *only* scheduler in ``repro.core``: it owns the phase and wall
timers, cuts the plan's trial range into ``plan.n_shards or
config.trial_shards`` disjoint shards, accumulates one
:class:`~repro.core.results.PartialResult` per priced block into a
:class:`~repro.core.results.ResultAccumulator`, stamps the common
``details`` keys (``trial_shards``, ``fused_layers``, ``plan``) and makes the
one call to :func:`~repro.core.plan.finalize_plan_result`.  Per-trial
reductions are trial-local, so the merge is pure column placement: any shard
count, block refinement or completion order yields bit-identical output.

A backend is a :class:`ShardPricer`.  Once per run it *prepares* (rows or
stack, lookup structures, loaded C kernels, pool configuration) and returns a
:class:`ShardRun`: the function pricing one trial window to
``(losses, max_occurrence)``, the backend's own ``details``, and — for the
multicore backend, whose mapping is finer than a shard — how a shard is
refined into blocks and how the blocks are mapped (one block per shard,
priced serially, here; the worker schedule over a process pool in
:mod:`repro.core.multicore`; socket workers in
:mod:`repro.distributed.fleet`).

A plan lowered over an out-of-core shard source
(:class:`~repro.yet.io.YetShardReader` and the stores' sources) runs through
the same loop: the driver materialises one shard's table at a time, so the
resident working set is one shard plus the accumulated year-loss blocks.  A
run whose map is remote (``ShardRun.reads_tables = False``) is handed the
source itself with every block instead, and reads nothing locally.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.config import EngineConfig
from repro.core.kernels import (
    layer_trial_losses,
    layer_trial_losses_batch,
    per_layer_trial_losses,
)
from repro.core.phases import PHASE_EVENT_FETCH
from repro.core.plan import ExecutionPlan, finalize_plan_result
from repro.core.results import EngineResult, PartialResult, ResultAccumulator
from repro.parallel.partitioner import TrialRange
from repro.utils.timing import PhaseTimer, Timer
from repro.yet.table import YearEventTable

__all__ = ["ShardPricer", "ShardRun", "run_plan", "window_pricer"]

#: ``price(event_ids, local_offsets, timer=...) -> (losses, max_occurrence)``
#: over every plan row of one trial window.
WindowPrice = Callable[..., Tuple[np.ndarray, "np.ndarray | None"]]


def window_pricer(
    plan: ExecutionPlan,
    config: EngineConfig,
    fused: bool,
    *,
    stack: np.ndarray | Sequence[np.ndarray] | None = None,
    chunk_events: int | None = None,
    kernel: Callable[..., Any] = layer_trial_losses,
) -> WindowPrice:
    """The window-pricing function of the NumPy backends (picklable).

    Fused, every row of the window is gathered from ``stack`` in one
    :func:`~repro.core.kernels.layer_trial_losses_batch` pass (streamed in
    ``chunk_events`` chunks when given); otherwise ``kernel`` prices the
    window one source layer at a time — the ``fused_layers=False`` ablation.
    The vectorized and chunked pricers call it in-process, the native pricer
    falls back to it, and multicore workers call the very same object.
    """
    if fused:
        return partial(
            layer_trial_losses_batch,
            (),
            terms=plan.terms,
            stack=stack,
            row_map=plan.row_map,
            chunk_events=chunk_events,
            record_max_occurrence=config.record_max_occurrence,
        )
    return partial(
        per_layer_trial_losses,
        kernel,
        [layer.loss_matrix() for layer in plan.layers],
        [layer.terms for layer in plan.layers],
        record_max_occurrence=config.record_max_occurrence,
    )


class ShardRun:
    """One run's prepared state, handed from a backend to the driver.

    ``price`` prices one trial window; ``details`` are the backend-specific
    result details.
    """

    #: ``False`` for a remote map (the fleet): it gets the plan's shard source
    #: once, with every block, and no shard is materialised locally.
    reads_tables = True

    def __init__(self, price: WindowPrice, details: Mapping[str, Any] | None = None) -> None:
        self.price = price
        self.details = dict(details or {})

    def blocks(self, n_trials: int) -> List[TrialRange]:
        """The blocks (shard-local ranges) one shard of ``n_trials`` is priced as."""
        return [TrialRange(0, n_trials)]

    def map(
        self, yet: YearEventTable, blocks: List[TrialRange], timer: PhaseTimer
    ) -> Iterable[Tuple[TrialRange, np.ndarray, "np.ndarray | None"]]:
        """Price ``blocks`` (trial ranges of ``yet``), in any order."""
        for block in blocks:
            with timer.phase(PHASE_EVENT_FETCH):
                event_ids, offsets = yet.trial_window(block.start, block.stop)
            losses, max_occurrence = self.price(event_ids, offsets, timer=timer)
            yield block, losses, max_occurrence


class ShardPricer:
    """Base class of the engine backends: a named way to price trial windows."""

    name = ""
    #: Whether the backend can price stacked rows in one fused pass; the
    #: sequential reference only ever walks source layers.
    fuses = True

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config if config is not None else EngineConfig(backend=self.name)

    def run_plan(self, plan: ExecutionPlan) -> EngineResult:
        """Execute an :class:`~repro.core.plan.ExecutionPlan` through the shard driver."""
        return run_plan(plan, self.config, self)

    def fused(self, plan: ExecutionPlan) -> bool:
        """Whether this backend prices ``plan`` through the fused stack path."""
        if self.fuses:
            return self.config.fused_layers or not plan.has_layers
        if not plan.has_layers:
            raise ValueError(
                f"backend {self.name!r} has no stacked execution path; "
                "use one of the fused backends (vectorized, chunked, multicore)"
            )
        return False

    def prepare(self, plan: ExecutionPlan, fused: bool, timer: PhaseTimer) -> ShardRun:
        """Build whatever one run needs once; ``timer`` times the preparation."""
        raise NotImplementedError


def _shifted(block: TrialRange, by: int) -> TrialRange:
    return TrialRange(block.start + by, block.stop + by)


def _tables(
    plan: ExecutionPlan, shards: List[TrialRange], run: ShardRun
) -> Iterator[Tuple[YearEventTable, int, List[TrialRange]]]:
    """``(resident table, its first global trial, the shards it holds)``."""
    if isinstance(plan.yet, YearEventTable) or not run.reads_tables:
        yield plan.yet, 0, shards
    else:
        # Out-of-core shard source: exactly one shard's columns are resident.
        for trials in shards:
            yield plan.yet.shard(trials), trials.start, [trials]


def run_plan(plan: ExecutionPlan, config: EngineConfig, backend: ShardPricer) -> EngineResult:
    """Execute ``plan`` with ``backend`` pricing its trial shards."""
    timer = PhaseTimer(enabled=config.record_phases)
    wall = Timer().start()

    fused = backend.fused(plan)
    run = backend.prepare(plan, fused, timer)
    shards = plan.shard_ranges(plan.n_shards or config.trial_shards)
    accumulator = ResultAccumulator.for_plan(plan)
    for yet, first, resident in _tables(plan, shards, run):
        blocks = [
            _shifted(block, shard.start - first)
            for shard in resident
            for block in run.blocks(shard.size)
        ]
        for block, losses, max_occurrence in run.map(yet, blocks, timer):
            accumulator.add(PartialResult(_shifted(block, first), losses, max_occurrence))

    return finalize_plan_result(
        plan,
        backend.name,
        accumulator.year_losses(),
        accumulator.max_occurrence_losses(),
        wall.stop(),
        {**run.details, "fused_layers": fused, "trial_shards": len(shards)},
        phase_breakdown=timer.breakdown() if config.record_phases else None,
    )
