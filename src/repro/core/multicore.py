"""Multi-core (multi-process) backend: the OpenMP analogue.

The paper's multi-core engine runs one OpenMP thread per trial with the ELT
direct access tables shared in the process's address space.  The Python
analogue uses worker *processes* (to sidestep the GIL) over *blocks* of
trials.  How the read-only inputs reach the workers follows from the start
method alone (:func:`publishes_workspace`):

* under ``fork`` the Year Event Table and the fused loss stack are inherited
  by reference (zero-copy on Linux);
* under ``spawn``/``forkserver`` the backend publishes the stack and the YET
  columns through :class:`SharedArray` segments, so each worker *attaches* a
  zero-copy NumPy view instead of unpickling ``n_rows x catalog_size``
  doubles per run.

``EngineConfig.n_workers`` plays the role of the paper's "number of cores"
(Fig. 3a) and ``EngineConfig.oversubscription`` the role of "threads per
core" (Fig. 3b): each shard is cut into ``n_workers x oversubscription``
nearly equal blocks, and the pool hands each block to whichever worker is
idle.

Every shard of the plan is decomposed into that schedule and the flattened
block list runs through one pool (one worker start-up for the whole plan,
however many shards it has); each worker prices its block with the very
window-pricing function the vectorized backend calls in-process, and returns
its per-block phase seconds for the driver's ``record_phases`` breakdown.  A
worker block *is* a trial shard — disjoint by construction — so the
assembled result is bit-identical for any worker count, oversubscription or
shard count.

For serving workloads the backend can additionally *retain* the published
workspace across runs (``retain_workspaces``): re-executing the same plan
object — which is exactly what the
:class:`~repro.service.service.RiskService` plan cache produces — reuses
the shared segments instead of copying the stack and YET columns back into
``/dev/shm`` per request.  A retained workspace is closed when its plan is
garbage collected, when retention is switched off, or via
:meth:`MulticoreEngine.release_workspaces`; the module-level ``atexit``
guard backstops process exit.

Shared-memory transport
-----------------------

Python worker *processes* do not share memory by default — naively passing
the arrays to a process pool would pickle and copy gigabytes per worker.
:class:`SharedArray` wraps
:class:`multiprocessing.shared_memory.SharedMemory` so that

* the parent allocates the block once and copies the data in,
* each worker attaches to the block by name and builds a zero-copy NumPy view,
* the parent unlinks the block when the analysis is finished.

:class:`SharedWorkspace` manages a named collection of such arrays (the YET's
event ids and offsets plus the fused loss stack) and can reconstruct the
views on the worker side from a compact, picklable descriptor.

Lifecycle guarantees
--------------------

Shared segments are system-global resources: a segment whose owner forgets
``unlink()`` outlives the process in ``/dev/shm``.  Three layers of defence
make leaks impossible in practice:

* every owner is tracked in a module-level registry and an ``atexit`` hook
  closes and unlinks any segment still open at interpreter shutdown (so an
  exception that skips a ``finally`` block cannot leak past process exit);
* :class:`SharedWorkspace` and :class:`SharedArray` are context managers, and
  the multicore backend wraps its workspace in ``try/finally`` — a worker
  dying mid-block (raising, or killed outright) still ends with the parent
  unlinking every segment;
* worker-side attachments bypass Python's per-process resource tracker
  (``track=False`` on 3.13+, a register shim on older versions), so a dying
  worker can neither prematurely unlink a segment other workers are reading
  nor spam ``KeyError`` tracebacks from double-unregistration.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
import weakref
from dataclasses import dataclass
from functools import partial
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, Iterator, List, Mapping, NamedTuple, Tuple

import numpy as np

from repro.core.config import EngineConfig
from repro.core.driver import ShardPricer, ShardRun, WindowPrice, window_pricer
from repro.core.plan import ExecutionPlan
from repro.parallel.partitioner import TrialRange, block_partition
from repro.utils.timing import PhaseTimer
from repro.yet.table import YearEventTable

__all__ = [
    "MulticoreEngine",
    "SharedArray",
    "SharedWorkspace",
    "available_cores",
    "publishes_workspace",
]

# Owner-side registry backing the atexit guard.  WeakSet: a SharedArray that
# was closed and garbage-collected must not be resurrected at shutdown.
_LIVE_OWNERS: "weakref.WeakSet[SharedArray]" = weakref.WeakSet()
_REGISTRY_LOCK = threading.Lock()


@atexit.register
def _unlink_leaked_segments() -> None:  # pragma: no cover - exercised via subprocess
    """Last-resort guard: unlink any owned segment still open at exit."""
    with _REGISTRY_LOCK:
        owners = list(_LIVE_OWNERS)
    for owner in owners:
        try:
            owner.close()
        except Exception:
            pass


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering a tracker claim.

    Python < 3.13 registers *every* attachment with the attaching process's
    resource tracker (bpo-38119), so a worker exiting would try to unlink a
    segment the parent still owns.  3.13+ exposes ``track=False``; on older
    versions the registration call is shimmed out for the duration of the
    attach.  The owner side keeps normal tracking — the segment always has
    exactly one tracked claimant, the process responsible for unlinking it.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: no track parameter
        pass
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register

    def _skip_shared_memory(res_name, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original_register(res_name, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


@dataclass(frozen=True)
class SharedArrayDescriptor:
    """Picklable description of a shared array (name, shape, dtype)."""

    shm_name: str
    shape: Tuple[int, ...]
    dtype: str


class SharedArray:
    """A NumPy array backed by a named shared-memory block."""

    def __init__(self, shm: shared_memory.SharedMemory, array: np.ndarray, owner: bool) -> None:
        self._shm = shm
        self.array = array
        self._owner = owner
        self._closed = False
        if owner:
            with _REGISTRY_LOCK:
                _LIVE_OWNERS.add(self)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_array(cls, source: np.ndarray) -> "SharedArray":
        """Allocate a shared block and copy ``source`` into it (parent side)."""
        source = np.ascontiguousarray(source)
        nbytes = max(int(source.nbytes), 1)
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        view = np.ndarray(source.shape, dtype=source.dtype, buffer=shm.buf)
        view[...] = source
        return cls(shm, view, owner=True)

    @classmethod
    def attach(cls, descriptor: SharedArrayDescriptor) -> "SharedArray":
        """Attach to an existing shared block by descriptor (worker side)."""
        shm = _attach_untracked(descriptor.shm_name)
        view = np.ndarray(
            descriptor.shape, dtype=np.dtype(descriptor.dtype), buffer=shm.buf
        )
        return cls(shm, view, owner=False)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def descriptor(self) -> SharedArrayDescriptor:
        """Descriptor that a worker can use to attach to this array."""
        return SharedArrayDescriptor(
            shm_name=self._shm.name,
            shape=tuple(self.array.shape),
            dtype=self.array.dtype.str,
        )

    @property
    def nbytes(self) -> int:
        """Size of the underlying array in bytes."""
        return int(self.array.nbytes)

    def close(self) -> None:
        """Detach from the block; the owner also unlinks (frees) it."""
        if self._closed:
            return
        self._closed = True
        if self._owner:
            with _REGISTRY_LOCK:
                _LIVE_OWNERS.discard(self)
        # Drop the NumPy view before closing the mapping, otherwise the
        # exported buffer keeps the mapping alive and close() raises.
        self.array = None  # type: ignore[assignment]
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort cleanup
        try:
            self.close()
        except Exception:
            pass


class SharedWorkspace:
    """A named collection of shared arrays plus reconstruction helpers."""

    def __init__(self) -> None:
        self._arrays: Dict[str, SharedArray] = {}

    def add(self, name: str, source: np.ndarray) -> SharedArray:
        """Copy ``source`` into shared memory under ``name`` (parent side)."""
        if name in self._arrays:
            raise KeyError(f"shared array {name!r} already exists")
        shared = SharedArray.from_array(source)
        self._arrays[name] = shared
        return shared

    def descriptors(self) -> Dict[str, SharedArrayDescriptor]:
        """Picklable descriptors of every array (sent to workers)."""
        return {name: arr.descriptor for name, arr in self._arrays.items()}

    def close(self) -> None:
        """Close and unlink every shared block."""
        for shared in self._arrays.values():
            shared.close()
        self._arrays.clear()

    def __enter__(self) -> "SharedWorkspace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Worker-side reconstruction
    # ------------------------------------------------------------------ #
    @staticmethod
    def attach_all(
        descriptors: Mapping[str, SharedArrayDescriptor],
    ) -> Dict[str, SharedArray]:
        """Attach to every described array (worker side).

        The caller is responsible for keeping the returned objects alive for
        as long as the views are used and for calling ``close()`` afterwards.
        """
        return {name: SharedArray.attach(desc) for name, desc in descriptors.items()}


# Module-level slot the pool initializer fills in each worker process.
_WORKER_CONTEXT: Any = None


def available_cores() -> int:
    """Number of usable CPU cores (respecting CPU affinity when set)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def publishes_workspace(config: EngineConfig) -> bool:
    """Whether a fused multicore run publishes its arrays via shared memory.

    ``fork`` workers inherit the parent's address space for free; any other
    start method would otherwise pickle the arrays once per worker.  A
    single-worker run executes in-process and has no transport at all.
    """
    return config.n_workers > 1 and config.start_method != "fork"


class _WorkerContext(NamedTuple):
    """Read-only data shared with the worker processes."""

    price: WindowPrice
    event_ids: np.ndarray
    trial_offsets: np.ndarray
    record_phases: bool
    #: Worker-side keep-alive handles for shared-memory views; ``None`` when
    #: the arrays were inherited.
    attachments: Any = None


def _attach_context(
    descriptors: Mapping[str, SharedArrayDescriptor], price: WindowPrice, record_phases: bool
) -> _WorkerContext:
    """Worker side of a published workspace: attach zero-copy views.

    Only the compact descriptors and the small term vectors inside ``price``
    travel through the pickle channel; the window pricer is bound to the
    attached stack.
    """
    attachments = SharedWorkspace.attach_all(descriptors)
    return _WorkerContext(
        partial(price, stack=attachments["stack"].array),
        attachments["event_ids"].array,
        attachments["trial_offsets"].array,
        record_phases,
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


def _init_worker(context_factory: Callable[[], _WorkerContext]) -> None:
    """Pool initializer: build the worker's context once."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context_factory()


def _run_block(block: TrialRange) -> Tuple[np.ndarray, np.ndarray | None, PhaseTimer]:
    """Pool task: price one block against the worker's context."""
    return _analyse_block(_WORKER_CONTEXT, block)


class _PoolRun(ShardRun):
    """One multicore run: shards refined into worker blocks, mapped over a pool."""

    def __init__(
        self, engine: "MulticoreEngine", plan: ExecutionPlan, fused: bool, timer: PhaseTimer
    ) -> None:
        config = engine.config
        self.engine = engine
        self.plan = plan
        self.stack = plan.stack(timer) if fused else None
        self.use_shm = fused and publishes_workspace(config)
        super().__init__(
            # Under shared memory each worker binds the stack it attached.
            window_pricer(
                plan, config, fused, stack=None if self.use_shm else self.stack
            ),
            {
                "n_workers": config.n_workers,
                "oversubscription": config.oversubscription,
                "n_blocks": 0,
                "shared_memory": self.use_shm,
                "workspace_reused": False,
            },
        )

    def blocks(self, n_trials: int) -> List[TrialRange]:
        config = self.engine.config
        return block_partition(n_trials, config.n_workers * config.oversubscription)

    def map(
        self, yet: YearEventTable, blocks: List[TrialRange], timer: PhaseTimer
    ) -> Iterator[Tuple[TrialRange, np.ndarray, np.ndarray | None]]:
        config = self.engine.config
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
                context_factory = partial(
                    _attach_context, workspace.descriptors(), self.price, config.record_phases
                )
            else:
                context_factory = partial(
                    _WorkerContext,
                    self.price,
                    yet.event_ids,
                    yet.trial_offsets,
                    config.record_phases,
                )
            if config.n_workers == 1:
                # In-process: no start-up cost, and profilers see the kernels.
                context = context_factory()
                results = [_analyse_block(context, block) for block in blocks]
            else:
                ctx = mp.get_context(config.start_method)
                if config.start_method == "forkserver":
                    # Preload the engine stack into the fork server so each
                    # worker forks with NumPy and the kernels already imported.
                    # Only the first call (before the server starts) has any
                    # effect.
                    ctx.set_forkserver_preload(["repro.core.multicore"])
                with ctx.Pool(
                    processes=config.n_workers,
                    initializer=_init_worker,
                    initargs=(context_factory,),
                ) as pool:
                    # chunksize=1: blocks are already coarse, and an idle
                    # worker takes the next one.
                    results = pool.map(_run_block, blocks, chunksize=1)
        finally:
            # A worker dying mid-block must not leak the shared segments:
            # the owner unlinks them on every exit path (the atexit guard
            # above backstops even this).  Retained workspaces
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
