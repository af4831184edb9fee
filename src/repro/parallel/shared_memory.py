"""Shared-memory NumPy arrays for multi-process execution.

OpenMP threads share one address space: the YET and the layers' direct access
tables are loaded once and every thread reads them.  Python worker *processes*
do not share memory by default — naively passing the arrays to a process pool
would pickle and copy gigabytes per worker.  :class:`SharedArray` wraps
:class:`multiprocessing.shared_memory.SharedMemory` so that

* the parent allocates the block once and copies the data in,
* each worker attaches to the block by name and builds a zero-copy NumPy view,
* the parent unlinks the block when the analysis is finished.

:class:`SharedWorkspace` manages a named collection of such arrays (the YET's
event ids and offsets plus the fused loss stack) and can reconstruct the
views on the worker side from a compact, picklable descriptor.  This is the
transport the multicore backend uses: the
:class:`~repro.core.plan.ExecutionPlan`'s stack and YET columns are published
once and every worker attaches zero-copy instead of unpickling
``n_layers x catalog_size`` doubles per run.

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
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Mapping, Tuple

import numpy as np

__all__ = ["SharedArray", "SharedArrayDescriptor", "SharedWorkspace"]

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

    def get(self, name: str) -> np.ndarray:
        """The parent-side view of the named array."""
        return self._arrays[name].array

    def descriptors(self) -> Dict[str, SharedArrayDescriptor]:
        """Picklable descriptors of every array (sent to workers)."""
        return {name: arr.descriptor for name, arr in self._arrays.items()}

    @property
    def total_bytes(self) -> int:
        """Total shared memory held by the workspace."""
        return sum(arr.nbytes for arr in self._arrays.values())

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
