"""The two compact ELT lookup structures of the Section III-B ablation.

The paper argues for direct access tables (:class:`repro.elt.DirectAccessTable`,
one memory access per lookup) over compact representations.  The engine only
ever uses the direct access table; these two alternatives exist for
``bench_ablation_elt_structures``, which measures the trade-off:

* :class:`SortedEventLossTable` — the "compact representation" the paper
  argues against: the (event id, loss) pairs are kept sorted by event id and
  each lookup costs ``O(log n)`` memory accesses via binary search.  Memory
  usage is proportional to the number of non-zero records rather than the
  catalog size, so it wins on space and loses on lookup latency.
* :class:`HashedEventLossTable` — the constant-time space-efficient hashing
  (cuckoo hashing) alternative the paper dismisses for GPUs because of
  "considerable implementation and run-time performance complexity": an
  open-addressing table sized to a configurable load factor.  It is
  implemented with NumPy arrays (keys and values) and linear probing, so
  vectorised batch lookups remain possible (each probe round is a vectorised
  gather), mimicking how a GPU implementation would have to iterate probe
  rounds in lock-step across a warp.
"""

from __future__ import annotations

import numpy as np

from repro.elt.table import EventLossTable, LossLookup

__all__ = ["HashedEventLossTable", "SortedEventLossTable"]

_EMPTY = np.int64(-1)


class HashedEventLossTable(LossLookup):
    """Open-addressing hash table keyed by event id."""

    def __init__(self, elt: EventLossTable, load_factor: float = 0.5) -> None:
        if not 0.0 < load_factor < 1.0:
            raise ValueError(f"load_factor must be in (0, 1), got {load_factor}")
        self._catalog_size = elt.catalog_size
        self.terms = elt.terms
        self.name = elt.name
        self._n_records = elt.size
        n_slots = 8
        while n_slots * load_factor < max(elt.size, 1):
            n_slots *= 2
        self._n_slots = n_slots
        self._mask = n_slots - 1
        self._keys = np.full(n_slots, _EMPTY, dtype=np.int64)
        self._values = np.zeros(n_slots, dtype=np.float64)
        self._max_probes = 1
        for event_id, loss in zip(elt.event_ids, elt.losses):
            self._insert(int(event_id), float(loss))

    # ------------------------------------------------------------------ #
    # Hashing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _hash(keys: np.ndarray | int) -> np.ndarray | int:
        """Fibonacci (multiplicative) hashing of 64-bit keys."""
        if isinstance(keys, np.ndarray):
            with np.errstate(over="ignore"):
                return (keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(32)
        return ((int(keys) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF) >> 32

    def _insert(self, event_id: int, loss: float) -> None:
        slot = self._hash(event_id) & self._mask
        probes = 1
        while self._keys[slot] != _EMPTY:
            if self._keys[slot] == event_id:
                raise ValueError(f"duplicate event id {event_id}")
            slot = (slot + 1) & self._mask
            probes += 1
        self._keys[slot] = event_id
        self._values[slot] = loss
        self._max_probes = max(self._max_probes, probes)

    # ------------------------------------------------------------------ #
    # LossLookup interface
    # ------------------------------------------------------------------ #
    @property
    def catalog_size(self) -> int:
        return self._catalog_size

    @property
    def n_records(self) -> int:
        """Number of stored (event, loss) records."""
        return self._n_records

    @property
    def n_slots(self) -> int:
        """Number of slots in the open-addressing table."""
        return self._n_slots

    @property
    def max_probes(self) -> int:
        """Worst-case probe chain length observed during construction."""
        return self._max_probes

    def lookup(self, event_id: int) -> float:
        if not 0 <= event_id < self._catalog_size:
            raise IndexError(f"event_id {event_id} out of range [0, {self._catalog_size})")
        slot = self._hash(event_id) & self._mask
        for _ in range(self._max_probes):
            key = self._keys[slot]
            if key == event_id:
                return float(self._values[slot])
            if key == _EMPTY:
                return 0.0
            slot = (slot + 1) & self._mask
        return 0.0

    def lookup_many(self, event_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(event_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self._catalog_size):
            raise IndexError("event ids out of range of the catalog")
        result = np.zeros(ids.shape, dtype=np.float64)
        if ids.size == 0 or self._n_records == 0:
            return result
        slots = (self._hash(ids) & np.uint64(self._mask)).astype(np.int64)
        unresolved = np.ones(ids.shape, dtype=bool)
        # Lock-step probe rounds: all unresolved lookups advance one probe at a
        # time, the vectorised analogue of warp-synchronous probing on a GPU.
        for _ in range(self._max_probes):
            if not unresolved.any():
                break
            keys = self._keys[slots]
            hit = unresolved & (keys == ids)
            result[hit] = self._values[slots[hit]]
            miss_empty = unresolved & (keys == _EMPTY)
            unresolved &= ~(hit | miss_empty)
            slots = (slots + 1) & self._mask
        return result

    @property
    def memory_bytes(self) -> int:
        return int(self._keys.nbytes + self._values.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HashedEventLossTable(records={self._n_records}, slots={self._n_slots}, "
            f"max_probes={self._max_probes})"
        )


class SortedEventLossTable(LossLookup):
    """Sorted (event id, loss) pairs with binary-search lookups."""

    def __init__(self, elt: EventLossTable) -> None:
        order = np.argsort(elt.event_ids, kind="stable")
        self._event_ids = np.ascontiguousarray(elt.event_ids[order])
        self._losses = np.ascontiguousarray(elt.losses[order])
        self._catalog_size = elt.catalog_size
        self.terms = elt.terms
        self.name = elt.name

    @property
    def catalog_size(self) -> int:
        return self._catalog_size

    @property
    def n_records(self) -> int:
        """Number of stored (event, loss) records."""
        return int(self._event_ids.shape[0])

    def lookup(self, event_id: int) -> float:
        if not 0 <= event_id < self._catalog_size:
            raise IndexError(f"event_id {event_id} out of range [0, {self._catalog_size})")
        pos = int(np.searchsorted(self._event_ids, event_id))
        if pos < self._event_ids.shape[0] and self._event_ids[pos] == event_id:
            return float(self._losses[pos])
        return 0.0

    def lookup_many(self, event_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(event_ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self._catalog_size):
            raise IndexError("event ids out of range of the catalog")
        if self._event_ids.size == 0:
            return np.zeros(ids.shape, dtype=np.float64)
        pos = np.searchsorted(self._event_ids, ids)
        pos = np.minimum(pos, self._event_ids.shape[0] - 1)
        found = self._event_ids[pos] == ids
        result = np.where(found, self._losses[pos], 0.0)
        return result.astype(np.float64, copy=False)

    @property
    def memory_bytes(self) -> int:
        return int(self._event_ids.nbytes + self._losses.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SortedEventLossTable(records={self.n_records}, "
            f"catalog_size={self._catalog_size})"
        )
