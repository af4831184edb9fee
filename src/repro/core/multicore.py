"""Multi-core (multi-process) backend: the OpenMP analogue.

The paper's multi-core engine runs one OpenMP thread per trial with the ELT
direct access tables shared in the process's address space.  The Python
analogue uses worker *processes* (to sidestep the GIL) over *blocks* of
trials.  How the read-only inputs reach the workers depends on the transport:

* under ``fork`` the Year Event Table and the fused loss stack are inherited
  by reference (zero-copy on Linux);
* under ``spawn``/``forkserver`` the backend publishes the stack and the YET
  columns through :class:`~repro.parallel.shared_memory.SharedArray`
  segments, so each worker *attaches* a zero-copy NumPy view instead of
  unpickling ``n_rows x catalog_size`` doubles per run (the pickling
  transport remains available as the ``EngineConfig.shared_memory="off"``
  baseline).

``EngineConfig.n_workers`` plays the role of the paper's "number of cores"
(Fig. 3a) and ``EngineConfig.oversubscription`` with dynamic scheduling plays
the role of "threads per core" (Fig. 3b): the trial range is over-decomposed
into ``oversubscription x n_workers`` chunks that idle workers pull from the
pool's queue.

Every shard of the plan is decomposed into that schedule and the flattened
block list runs through one pool (one worker start-up for the whole plan,
however many shards it has); each worker prices its block with the very
window-pricing function the vectorized backend calls in-process, and returns
its per-block phase seconds for the driver's ``record_phases`` breakdown.  A
worker block *is* a trial shard — disjoint by construction — so the
assembled result is bit-identical for any worker count, scheduling policy or
shard count.

For serving workloads the backend can additionally *retain* the published
workspace across runs (``retain_workspaces``): re-executing the same plan
object — which is exactly what the
:class:`~repro.service.service.RiskService` plan cache produces — reuses
the shared segments instead of copying the stack and YET columns back into
``/dev/shm`` per request.  A retained workspace is closed when its plan is
garbage collected, when retention is switched off, or via
:meth:`MulticoreEngine.release_workspaces`; the module-level ``atexit``
guard in :mod:`repro.parallel.shared_memory` backstops process exit.
"""

from __future__ import annotations

import threading
import weakref
from functools import partial
from typing import Any, Iterator, List, Mapping, NamedTuple, Tuple

import numpy as np

from repro.core.config import EngineConfig
from repro.core.driver import ShardPricer, ShardRun, WindowPrice, window_pricer
from repro.core.plan import ExecutionPlan
from repro.parallel.executor import ParallelConfig, TrialBlockExecutor
from repro.parallel.partitioner import TrialRange
from repro.parallel.shared_memory import SharedArrayDescriptor, SharedWorkspace
from repro.utils.timing import PhaseTimer
from repro.yet.table import YearEventTable

__all__ = ["MulticoreEngine"]


class _WorkerContext(NamedTuple):
    """Read-only data shared with the worker processes."""

    price: WindowPrice
    event_ids: np.ndarray
    trial_offsets: np.ndarray
    record_phases: bool
    #: Worker-side keep-alive handles for shared-memory views; ``None`` when
    #: the arrays were inherited or pickled.
    attachments: Any = None


class _SharedPlanContext:
    """Picklable worker initializer: attach the plan's shared arrays.

    The parent publishes the fused stack and the YET columns as shared
    segments; each worker calls this factory once (in the pool initializer)
    to attach zero-copy views and bind the window pricer to the attached
    stack.  Only the compact descriptors and the small term vectors inside
    ``price`` travel through the pickle channel.
    """

    def __init__(
        self,
        descriptors: Mapping[str, SharedArrayDescriptor],
        price: WindowPrice,
        record_phases: bool,
    ) -> None:
        self.descriptors = dict(descriptors)
        self.price = price
        self.record_phases = record_phases

    def __call__(self) -> _WorkerContext:
        attachments = SharedWorkspace.attach_all(self.descriptors)
        return _WorkerContext(
            partial(self.price, stack=attachments["stack"].array),
            attachments["event_ids"].array,
            attachments["trial_offsets"].array,
            self.record_phases,
            attachments,
        )


def _analyse_block(
    context: _WorkerContext, block: TrialRange
) -> Tuple[np.ndarray, np.ndarray | None, PhaseTimer]:
    """Worker-side task: price one block of trials for every plan row.

    Returns ``(losses, max_occurrence, the block's phase timer)`` where
    ``losses`` has shape ``(n_rows, block.size)``.
    """
    lo = int(context.trial_offsets[block.start])
    hi = int(context.trial_offsets[block.stop])
    timer = PhaseTimer(enabled=context.record_phases)
    losses, max_occ = context.price(
        context.event_ids[lo:hi],
        context.trial_offsets[block.start : block.stop + 1] - lo,
        timer=timer,
    )
    return losses, max_occ, timer


class _PoolRun(ShardRun):
    """One multicore run: shards refined into the worker schedule, mapped over a pool."""

    def __init__(
        self, engine: "MulticoreEngine", plan: ExecutionPlan, fused: bool, timer: PhaseTimer
    ) -> None:
        config = engine.config
        self.engine = engine
        self.plan = plan
        self.stack = plan.stack(timer) if fused else None
        self.use_shm = fused and engine._uses_shared_memory()
        self.parallel_config = ParallelConfig(
            n_workers=config.n_workers,
            policy=config.scheduling,
            oversubscription=config.oversubscription,
            start_method=config.start_method,
        )
        super().__init__(
            # Under shared memory each worker binds the stack it attached.
            window_pricer(
                plan, config, fused, stack=None if self.use_shm else self.stack
            ),
            {
                "n_workers": config.n_workers,
                "scheduling": str(config.scheduling),
                "oversubscription": config.oversubscription,
                "n_blocks": 0,
                "shared_memory": self.use_shm,
                "workspace_reused": False,
            },
        )

    def blocks(self, n_trials: int) -> List[TrialRange]:
        return list(TrialBlockExecutor(self.parallel_config).schedule_for(n_trials).blocks)

    def map(
        self, yet: YearEventTable, blocks: List[TrialRange], timer: PhaseTimer
    ) -> Iterator[Tuple[TrialRange, np.ndarray, np.ndarray | None]]:
        record_phases = self.engine.config.record_phases
        workspace: SharedWorkspace | None = None
        owns_workspace = False
        try:
            if self.use_shm:
                # Publish the big read-only arrays once; workers attach
                # zero-copy views instead of unpickling them per worker.
                workspace, owns_workspace, reused = self.engine._acquire_workspace(
                    self.plan, yet, self.stack
                )
                self.details["workspace_reused"] = reused
                executor = TrialBlockExecutor(
                    self.parallel_config,
                    context_factory=_SharedPlanContext(
                        workspace.descriptors(), self.price, record_phases
                    ),
                )
            else:
                executor = TrialBlockExecutor(
                    self.parallel_config,
                    context=_WorkerContext(
                        self.price, yet.event_ids, yet.trial_offsets, record_phases
                    ),
                )
            results = executor.run(_analyse_block, work_items=blocks)
        finally:
            # A worker dying mid-block must not leak the shared segments:
            # the owner unlinks them on every exit path (an atexit guard in
            # shared_memory.py backstops even this).  Retained workspaces
            # are closed by release_workspaces() or the plan's finalizer.
            if workspace is not None and owns_workspace:
                workspace.close()
        self.details["n_blocks"] += len(blocks)
        for block, (losses, max_occ, block_timer) in zip(blocks, results):
            timer.merge(block_timer)
            yield block, losses, max_occ


class MulticoreEngine(ShardPricer):
    """Multi-process backend partitioning trials over worker processes."""

    name = "multicore"

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        #: Keep published workspaces alive across runs (warm-engine serving).
        self.retain_workspaces = False
        self._retained: "weakref.WeakKeyDictionary[ExecutionPlan, SharedWorkspace]" = (
            weakref.WeakKeyDictionary()
        )
        # Concurrent serving runs executions on a thread pool; without a lock
        # two threads could both miss the lookup and publish (and leak) a
        # second /dev/shm workspace for the same plan.
        self._retained_lock = threading.Lock()

    def prepare(self, plan: ExecutionPlan, fused: bool, timer: PhaseTimer) -> ShardRun:
        return _PoolRun(self, plan, fused, timer)

    def _uses_shared_memory(self) -> bool:
        """Whether the backend publishes the plan's arrays via shared memory."""
        config = self.config
        if config.n_workers == 1:
            # The executor's serial fast path runs in-process: there is no
            # transport at all, so copying the arrays into /dev/shm would be
            # pure overhead (and tmpfs pressure) even under "on".
            return False
        if config.shared_memory == "on":
            return True
        if config.shared_memory == "off":
            return False
        # auto: fork inherits the parent's address space for free; any other
        # start method would pickle the arrays once per worker.
        return config.start_method != "fork"

    # ------------------------------------------------------------------ #
    # Workspace retention (warm-engine serving)
    # ------------------------------------------------------------------ #
    def _acquire_workspace(
        self, plan: ExecutionPlan, yet: YearEventTable, stack: np.ndarray
    ) -> tuple[SharedWorkspace, bool, bool]:
        """(workspace, this run owns its teardown, it was reused).

        Without retention the caller publishes and closes per run.  With
        retention the workspace is stored against the plan object: a second
        execution of the same plan attaches to the already-published
        segments, and a ``weakref.finalize`` on the plan guarantees the
        segments are unlinked no later than the plan's own death.  Only the
        plan's own in-memory table is retained — the per-shard tables of an
        out-of-core run are published and closed shard by shard.
        """

        def publish() -> SharedWorkspace:
            workspace = SharedWorkspace()
            workspace.add("stack", stack)
            workspace.add("event_ids", yet.event_ids)
            workspace.add("trial_offsets", yet.trial_offsets)
            return workspace

        if not (self.retain_workspaces and yet is plan.yet):
            return publish(), True, False
        with self._retained_lock:
            workspace = self._retained.get(plan)
            if workspace is not None:
                return workspace, False, True
            workspace = self._retained[plan] = publish()
            weakref.finalize(plan, workspace.close)
            return workspace, False, False

    def release_workspaces(self) -> None:
        """Close every workspace retained across runs (idempotent)."""
        with self._retained_lock:
            workspaces = list(self._retained.values())
            self._retained.clear()
        for workspace in workspaces:
            workspace.close()
