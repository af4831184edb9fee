"""Pluggable Year-Event-Table store backends for the distributed fleet.

A fleet coordinator never ships a whole YET with every shard request;
workers fetch trial columns *by reference* from a store both sides can
reach.  This module defines the store contract and two backends:

* :class:`LocalDirYetStore` — a directory of :func:`~repro.yet.io.save_yet_store`
  store directories, one per key.  The shared-filesystem deployment: the
  coordinator ``put``\\ s once, every worker on the same filesystem (or NFS
  mount) memory-maps the store through :class:`~repro.yet.io.YetShardReader`
  and materialises only the shards it prices.
* :class:`InMemoryYetStore` — an object-store-style mapping of key to table.
  This is also the worker-side artifact cache when no filesystem is shared:
  the first request for a digest ships the table's
  :func:`~repro.yet.io.yet_to_bytes` blob (the worker decodes it and stores
  the table), every later request resolves the digest against the cache.

Both backends hand out **shard sources** — objects with the
:class:`~repro.yet.io.YetShardReader` shard interface (``n_trials``,
``shard(trials)``, ``shard_ranges``, context-manager
lifecycle) — so the engine's shard loop and the fleet worker are
indifferent to where the trial columns actually live.  ``shard`` bounds
errors follow the reader's ``0 <= start <= stop <= n`` contract exactly.

Store *references* are small JSON-compatible dicts (``{"kind": ...}``)
that travel on the control channel; :func:`resolve_yet_ref` turns one back
into a shard source on the worker.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, List, Mapping

from repro.parallel.partitioner import TrialRange, shard_partition
from repro.yet.io import YetShardReader, save_yet_store, shard_count_for_budget
from repro.yet.table import YearEventTable

__all__ = [
    "YetStore",
    "LocalDirYetStore",
    "InMemoryYetStore",
    "TableShardSource",
    "resolve_yet_ref",
]


def _validate_key(key: str) -> str:
    """Reject keys that cannot serve as a single path component / digest."""
    if not key or any(ch in key for ch in ("/", "\\", "\x00")) or key in (".", ".."):
        raise ValueError(f"invalid YET store key {key!r}")
    return key


class TableShardSource:
    """The :class:`~repro.yet.io.YetShardReader` shard interface over an
    in-memory :class:`~repro.yet.table.YearEventTable`.

    What :meth:`InMemoryYetStore.open` hands out: the engine's shard loop
    and the fleet worker see the same surface whether the columns come
    from a memory-mapped store directory or a resident table.  ``shard``
    enforces the reader's ``0 <= start <= stop <= n`` bounds contract with
    the same :class:`IndexError` shape.
    """

    def __init__(self, yet: YearEventTable) -> None:
        self._yet: YearEventTable | None = yet
        self.catalog_size = yet.catalog_size

    # ------------------------------------------------------------------ #
    # Shape accessors (mirror YetShardReader)
    # ------------------------------------------------------------------ #
    def _require_open(self) -> YearEventTable:
        if self._yet is None:
            raise ValueError("table shard source is closed")
        return self._yet

    @property
    def n_trials(self) -> int:
        return self._require_open().n_trials

    @property
    def n_occurrences(self) -> int:
        return self._require_open().n_occurrences

    @property
    def mean_events_per_trial(self) -> float:
        return self._require_open().mean_events_per_trial

    @property
    def event_bytes(self) -> int:
        return self._require_open().event_bytes

    def shard_count_for_budget(self, max_shard_bytes: int) -> int:
        return shard_count_for_budget(self.event_bytes, max_shard_bytes)

    # ------------------------------------------------------------------ #
    # Shard access
    # ------------------------------------------------------------------ #
    def shard(self, trials: TrialRange) -> YearEventTable:
        """Materialise one trial shard (locally indexed, like the reader)."""
        yet = self._require_open()
        if not 0 <= trials.start <= trials.stop <= yet.n_trials:
            raise IndexError(
                f"shard range [{trials.start}, {trials.stop}) outside "
                f"0 <= start <= stop <= {yet.n_trials}"
            )
        return yet.slice_trials(trials.start, trials.stop)

    def shard_ranges(self, n_shards: int) -> List[TrialRange]:
        return shard_partition(self.n_trials, n_shards)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._yet = None

    def __enter__(self) -> "TableShardSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._yet is None else f"n_trials={self._yet.n_trials}"
        return f"TableShardSource({state})"


class YetStore(ABC):
    """Abstract keyed store of Year Event Tables.

    Keys are opaque single-component strings — on the fleet wire they are
    the content digests from :func:`repro.service.digests.yet_digest`,
    which makes every store automatically deduplicating and immutable.
    """

    @abstractmethod
    def put(self, key: str, yet: YearEventTable) -> Mapping[str, Any]:
        """Store a table under ``key``; returns the JSON-able reference."""

    @abstractmethod
    def open(self, key: str):
        """A shard source over the stored table (``KeyError`` if absent)."""

    @abstractmethod
    def contains(self, key: str) -> bool:
        """Whether ``key`` is present."""

    @abstractmethod
    def ref(self, key: str) -> Mapping[str, Any]:
        """The JSON-able reference a worker resolves via :func:`resolve_yet_ref`."""

    def __contains__(self, key: str) -> bool:
        return self.contains(key)


class LocalDirYetStore(YetStore):
    """A root directory of per-key YET store directories (shared-filesystem)."""

    kind = "local_dir"

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / _validate_key(key)

    def put(self, key: str, yet: YearEventTable) -> Mapping[str, Any]:
        target = self._path(key)
        if not self.contains(key):
            save_yet_store(yet, target)
        return self.ref(key)

    def open(self, key: str) -> YetShardReader:
        target = self._path(key)
        if not self.contains(key):
            raise KeyError(f"no YET stored under key {key!r} in {self.root}")
        return YetShardReader(target)

    def contains(self, key: str) -> bool:
        return (self._path(key) / "yet_store.json").exists()

    def ref(self, key: str) -> Mapping[str, Any]:
        return {"kind": self.kind, "path": str(self._path(key).resolve())}

    def keys(self) -> List[str]:
        """Stored keys, sorted (directories with a manifest only)."""
        return sorted(
            p.name for p in self.root.iterdir() if (p / "yet_store.json").exists()
        )


class InMemoryYetStore(YetStore):
    """An object-store-style in-memory mapping of key to table.

    Doubles as the worker-side artifact cache for tables shipped inline
    over the wire (as :func:`~repro.yet.io.yet_to_bytes` blobs).
    """

    kind = "inline"

    def __init__(self) -> None:
        self._tables: dict[str, YearEventTable] = {}

    def put(self, key: str, yet: YearEventTable) -> Mapping[str, Any]:
        self._tables[_validate_key(key)] = yet
        return self.ref(key)

    def open(self, key: str) -> TableShardSource:
        return TableShardSource(self._tables[_validate_key(key)])

    def contains(self, key: str) -> bool:
        return key in self._tables

    def ref(self, key: str) -> Mapping[str, Any]:
        return {"kind": self.kind, "digest": _validate_key(key)}

    def keys(self) -> List[str]:
        return sorted(self._tables)

    def __len__(self) -> int:
        return len(self._tables)


def resolve_yet_ref(ref: Mapping[str, Any], inline_store: InMemoryYetStore | None = None):
    """Turn a store reference back into a shard source.

    ``{"kind": "local_dir", "path": ...}`` opens a
    :class:`~repro.yet.io.YetShardReader` on the referenced store directory;
    ``{"kind": "inline", "digest": ...}`` resolves against ``inline_store``
    (the worker's artifact cache) and raises ``KeyError`` when the digest
    has not been shipped yet — the signal the fleet worker translates
    into a *missing artifact* reply so the coordinator ships the bytes and
    retries.
    """
    kind = ref.get("kind")
    if kind == LocalDirYetStore.kind:
        return YetShardReader(ref["path"])
    if kind == InMemoryYetStore.kind:
        if inline_store is None:
            raise KeyError(
                f"inline YET reference {ref.get('digest')!r} but no inline store"
            )
        return inline_store.open(str(ref["digest"]))
    raise ValueError(f"unknown YET store reference kind {kind!r}")
