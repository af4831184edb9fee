"""Gathered-row store: ``(rows, YET event window) -> np.take(rows, window_ids)``.

Term variants of one book share their layers' combined net rows and price
them over the same YET, so the ELT lookup returns the same floats each time;
the fused kernel asks this process-wide store first, and a variant over a
warm YET does no random access (same floats, same operations: same bits).
An entry is the whole ``(n_rows, n_events)`` block of one row set, so a hit
costs the kernel one expansion call, not one per row.  Admission and
lifetime rules: README, "Re-terming a warm book".
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import List, Sequence

import numpy as np

__all__ = ["BUDGET_BYTES", "ROW_STORE", "RowStore", "gather_rows"]

#: Bytes of gathered rows the process keeps (a constant, not a knob).
BUDGET_BYTES = 24 << 20


def gather_rows(rows: Sequence[np.ndarray], ids: np.ndarray) -> np.ndarray:
    """``np.take(np.stack(rows), ids, axis=1)`` without stacking; ``ids`` must be
    in range (``clip`` never clips then, it only spares a buffered ``out``)."""
    gathered = np.empty((len(rows), ids.size), dtype=np.float64)
    for row, out in zip(rows, gathered):
        np.take(row, ids, out=out, mode="clip")
    return gathered


class RowStore:
    """A byte-budgeted, thread-safe LRU of read-only gathered row blocks."""

    def __init__(self, budget_bytes: int = BUDGET_BYTES) -> None:
        self.budget_bytes = int(budget_bytes)
        # key -> (block, weakref to the ids buffer, weakrefs to the rows)
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._dead: List[tuple] = []  # purges deferred while the lock was taken
        self._lock = threading.Lock()
        self.nbytes = self.hits = self.misses = self.evictions = 0

    def take(self, rows: Sequence[np.ndarray], ids: np.ndarray) -> np.ndarray:
        """:func:`gather_rows`, served read-only from the store when it may be kept."""
        buffer = ids if ids.base is None else ids.base
        if (ids.flags.writeable or not isinstance(buffer, np.ndarray)
                or len(rows) * ids.nbytes > self.budget_bytes
                or any(row.base is not None or row.flags.writeable for row in rows)):
            return gather_rows(rows, ids)
        key = (tuple(map(id, rows)), id(buffer), ids.__array_interface__["data"][0], ids.size)
        with self._lock:
            self._reap()
            entry = self._entries.get(key)
            if entry is not None and entry[1]() is buffer and all(
                    ref() is row for ref, row in zip(entry[2], rows)):
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[0]
        block = gather_rows(rows, ids)
        block.flags.writeable = False
        with self._lock:
            self._admit(key, block, rows, buffer)
        return block

    def _admit(self, key: tuple, block: np.ndarray, rows, buffer: np.ndarray) -> None:
        def purge(_ref: weakref.ref, key: tuple = key) -> None:
            # Free the bytes now, so a dropped book's gathers do not pin the
            # heap; defer while this or another thread is inside the store.
            self._dead.append(key)
            if self._lock.acquire(blocking=False):
                try:
                    self._reap()
                finally:
                    self._lock.release()

        self.misses += 1
        self._drop(key)
        refs = tuple(weakref.ref(row, purge) for row in rows)
        self._entries[key] = (block, weakref.ref(buffer, purge), refs)
        self.nbytes += block.nbytes
        while self.nbytes > self.budget_bytes:
            self._drop(next(iter(self._entries)))
            self.evictions += 1

    def _drop(self, key: tuple) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.nbytes -= entry[0].nbytes

    def _reap(self) -> None:
        while self._dead:
            key = self._dead.pop()
            entry = self._entries.get(key)
            if entry is not None and any(ref() is None for ref in (entry[1], *entry[2])):
                self._drop(key)

    def stats(self) -> dict:
        """Counters for the server's ``{"op": "stats"}`` reply."""
        with self._lock:
            self._reap()
            return {"entries": len(self._entries), "bytes": self.nbytes,
                    "budget_bytes": self.budget_bytes, "hits": self.hits,
                    "misses": self.misses, "evictions": self.evictions}


#: The process-wide store the fused kernel consults.
ROW_STORE = RowStore()
