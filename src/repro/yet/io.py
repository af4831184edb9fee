"""Serialization of Year Event Tables — whole-table and out-of-core.

YETs are large, immutable data artefacts that are generated once and reused by
many analyses, so being able to persist and reload them matters in practice.
Two on-disk forms are supported:

* a single compressed ``.npz`` file (:func:`save_yet` / :func:`load_yet`)
  holding the flat arrays plus a small metadata vector — compact, loads the
  whole table into RAM, round-trips exactly;
* a **store directory** (:func:`save_yet_store`) of raw ``.npy`` members plus
  a tiny JSON manifest, which :class:`YetShardReader` opens with
  memory-mapped event columns.  The reader materialises one *trial shard* at
  a time: only the shard's slice of the event ids (and timestamps) is copied
  into resident memory, so a table far larger than RAM can be priced shard
  by shard — the out-of-core leg of the engine's
  :meth:`~repro.core.engine.AggregateRiskEngine.run_sharded` path.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import List

import numpy as np

from repro.parallel.partitioner import TrialRange, shard_partition
from repro.yet.table import YearEventTable

__all__ = [
    "save_yet",
    "load_yet",
    "yet_to_bytes",
    "yet_from_bytes",
    "save_yet_store",
    "shard_count_for_budget",
    "YetShardReader",
]

_FORMAT_VERSION = 1

#: Manifest name of the store-directory format.
_STORE_MANIFEST = "yet_store.json"


def save_yet(yet: YearEventTable, path: str | os.PathLike) -> Path:
    """Save a YET to ``path`` (``.npz`` appended if missing). Returns the path."""
    target = Path(path)
    if target.suffix != ".npz":
        target = target.with_suffix(target.suffix + ".npz")
    meta = np.array([_FORMAT_VERSION, yet.catalog_size, 1 if yet.timestamps is not None else 0],
                    dtype=np.int64)
    arrays = {
        "meta": meta,
        "event_ids": yet.event_ids,
        "trial_offsets": yet.trial_offsets,
    }
    if yet.timestamps is not None:
        arrays["timestamps"] = yet.timestamps
    target.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(target, **arrays)
    return target


def load_yet(path: str | os.PathLike) -> YearEventTable:
    """Load a YET previously written by :func:`save_yet`."""
    source = Path(path)
    if not source.exists() and source.suffix != ".npz":
        source = source.with_suffix(source.suffix + ".npz")
    if not source.exists():
        raise FileNotFoundError(f"no such YET file: {path}")
    with np.load(source) as data:
        meta = data["meta"]
        version = int(meta[0])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported YET format version {version}")
        catalog_size = int(meta[1])
        has_timestamps = bool(meta[2])
        event_ids = data["event_ids"]
        trial_offsets = data["trial_offsets"]
        timestamps = data["timestamps"] if has_timestamps else None
    return YearEventTable(event_ids, trial_offsets, catalog_size, timestamps)


def yet_to_bytes(yet: YearEventTable) -> bytes:
    """Encode a YET as one in-memory ``.npz`` blob (see :func:`yet_from_bytes`).

    The exact member layout of :func:`save_yet`, written to a buffer instead
    of a file — the ``put_yet`` payload a fleet worker receives when it has
    no shared filesystem to fetch a store directory from.
    """
    meta = np.array(
        [_FORMAT_VERSION, yet.catalog_size, 1 if yet.timestamps is not None else 0],
        dtype=np.int64,
    )
    arrays = {"meta": meta, "event_ids": yet.event_ids, "trial_offsets": yet.trial_offsets}
    if yet.timestamps is not None:
        arrays["timestamps"] = yet.timestamps
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def yet_from_bytes(payload: bytes) -> YearEventTable:
    """Decode a YET encoded by :func:`yet_to_bytes`."""
    with np.load(io.BytesIO(payload)) as data:
        meta = data["meta"]
        version = int(meta[0])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported YET format version {version}")
        catalog_size = int(meta[1])
        has_timestamps = bool(meta[2])
        event_ids = data["event_ids"]
        trial_offsets = data["trial_offsets"]
        timestamps = data["timestamps"] if has_timestamps else None
    return YearEventTable(event_ids, trial_offsets, catalog_size, timestamps)


def shard_count_for_budget(event_bytes: int, max_shard_bytes: int) -> int:
    """Smallest shard count keeping one shard's event columns within a budget.

    ``ceil(event_bytes / max_shard_bytes)``, floored at one shard.  Shards
    are nearly equal in *trials*, not bytes, so a skewed table can exceed
    the budget on its densest shard; the estimate targets the mean.  The
    one shared implementation behind both
    :meth:`YetShardReader.shard_count_for_budget` and the in-memory
    ``max_shard_bytes`` branch of
    :meth:`~repro.core.engine.AggregateRiskEngine.run_sharded`.
    """
    if max_shard_bytes <= 0:
        raise ValueError(f"max_shard_bytes must be positive, got {max_shard_bytes}")
    if event_bytes <= 0:
        return 1
    return max(1, -(-int(event_bytes) // int(max_shard_bytes)))


def save_yet_store(yet: YearEventTable, path: str | os.PathLike) -> Path:
    """Save a YET as a store directory for out-of-core shard reading.

    The directory holds one raw ``.npy`` file per flat array plus a JSON
    manifest; raw ``.npy`` members (unlike zip-packed ``.npz`` ones) can be
    memory-mapped, which is what lets :class:`YetShardReader` touch only the
    pages of the shard being priced.  Returns the directory path.
    """
    target = Path(path)
    target.mkdir(parents=True, exist_ok=True)
    np.save(target / "event_ids.npy", yet.event_ids)
    np.save(target / "trial_offsets.npy", yet.trial_offsets)
    if yet.timestamps is not None:
        np.save(target / "timestamps.npy", yet.timestamps)
    manifest = {
        "format_version": _FORMAT_VERSION,
        "catalog_size": yet.catalog_size,
        "n_trials": yet.n_trials,
        "n_occurrences": yet.n_occurrences,
        "has_timestamps": yet.timestamps is not None,
    }
    (target / _STORE_MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n")
    return target


class YetShardReader:
    """Memory-mapped trial-shard reader over a YET store directory.

    The trial offsets (``n_trials + 1`` int64 — tiny) are loaded eagerly;
    the event ids and timestamps stay memory-mapped, and
    :meth:`shard` copies exactly one shard's columns into a fresh in-memory
    :class:`~repro.yet.table.YearEventTable`.  Total resident memory over a
    full sweep is therefore bounded by one shard (plus whatever the caller
    accumulates), not by the table.

    Use as a context manager, or :meth:`close` explicitly; iterating shards
    after ``close`` raises.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        manifest_path = self.path / _STORE_MANIFEST
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"no YET store at {self.path} (missing {_STORE_MANIFEST}; "
                "write one with save_yet_store)"
            )
        manifest = json.loads(manifest_path.read_text())
        version = int(manifest["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported YET store version {version}")
        self.catalog_size = int(manifest["catalog_size"])
        self._has_timestamps = bool(manifest["has_timestamps"])
        self.trial_offsets = np.load(self.path / "trial_offsets.npy")
        self._event_ids: np.ndarray | None = np.load(
            self.path / "event_ids.npy", mmap_mode="r"
        )
        self._timestamps: np.ndarray | None = (
            np.load(self.path / "timestamps.npy", mmap_mode="r")
            if self._has_timestamps
            else None
        )

    # ------------------------------------------------------------------ #
    # Shape accessors
    # ------------------------------------------------------------------ #
    @property
    def n_trials(self) -> int:
        """Number of trials in the stored table."""
        return int(self.trial_offsets.shape[0] - 1)

    @property
    def n_occurrences(self) -> int:
        """Total number of stored event occurrences."""
        return int(self.trial_offsets[-1])

    @property
    def mean_events_per_trial(self) -> float:
        """Average trial length of the stored table."""
        if self.n_trials == 0:
            return 0.0
        return self.n_occurrences / self.n_trials

    @property
    def event_bytes(self) -> int:
        """Bytes of event columns a whole-table load would make resident."""
        per_event = 8 + (8 if self._has_timestamps else 0)
        return self.n_occurrences * per_event

    def shard_count_for_budget(self, max_shard_bytes: int) -> int:
        """Smallest shard count keeping one shard's columns within a byte budget.

        Delegates to the module-level :func:`shard_count_for_budget` with
        the stored table's event-column bytes.
        """
        return shard_count_for_budget(self.event_bytes, max_shard_bytes)

    # ------------------------------------------------------------------ #
    # Shard access
    # ------------------------------------------------------------------ #
    def _require_open(self) -> np.ndarray:
        if self._event_ids is None:
            raise ValueError(f"YET store reader for {self.path} is closed")
        return self._event_ids

    def shard(self, trials: TrialRange) -> YearEventTable:
        """Materialise one trial shard as an in-memory YET.

        The returned table is indexed locally (trial 0 = ``trials.start``);
        the shard's global placement travels alongside it through the
        :class:`~repro.parallel.partitioner.TrialRange`.
        """
        event_ids = self._require_open()
        if not 0 <= trials.start <= trials.stop <= self.n_trials:
            # stop == n_trials is valid (the range is trials [start, stop),
            # so stop may equal the trial count) — report the bound as
            # inclusive, not as [0, n_trials).
            raise IndexError(
                f"shard range [{trials.start}, {trials.stop}) outside "
                f"0 <= start <= stop <= {self.n_trials}"
            )
        lo = int(self.trial_offsets[trials.start])
        hi = int(self.trial_offsets[trials.stop])
        offsets = self.trial_offsets[trials.start : trials.stop + 1] - lo
        # np.array (not asarray): a slice of a memmap is still a view on the
        # file mapping, so an explicit copy is required for the returned
        # table to be genuinely in-memory — independent of close() and of
        # the store file's lifetime.
        timestamps = (
            np.array(self._timestamps[lo:hi]) if self._timestamps is not None else None
        )
        return YearEventTable(
            np.array(event_ids[lo:hi]),
            offsets,
            self.catalog_size,
            timestamps,
        )

    def shard_ranges(self, n_shards: int) -> List[TrialRange]:
        """At most ``n_shards`` contiguous non-empty trial ranges covering the table."""
        return shard_partition(self.n_trials, n_shards)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop the memory maps (idempotent)."""
        self._event_ids = None
        self._timestamps = None

    def __enter__(self) -> "YetShardReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"YetShardReader(path={str(self.path)!r}, n_trials={self.n_trials}, "
            f"n_occurrences={self.n_occurrences})"
        )
