"""Content-addressed, delta-aware caching of accumulated results.

The :class:`~repro.service.cache.PlanCache` removes the pre-kernel work from
a warm request; this module removes the *kernel pass itself* wherever the
answer — or most of it — has already been computed.  A
:class:`ResultCache` maps the content key

``(program digest, YET digest, config digest, trial range)``

to the :class:`~repro.core.results.ResultAccumulator` holding that run's
year-loss blocks, and PR 5's merge algebra makes three serving patterns
exact by construction:

* **exact repeat** — the same key returns the accumulated result with no
  engine pass, quoted from the per-row metrics memoised on the entry
  (:meth:`~repro.core.results.ResultAccumulator.risk_metrics`);
* **append-trials delta** — a submitted YET whose first ``n`` trials are
  byte-identical to a cached entry's YET (recognised via
  :func:`~repro.service.digests.yet_prefix_digest`) re-prices only the
  appended trial range: the cached accumulator is
  :meth:`~repro.core.results.ResultAccumulator.extended` over the new
  domain, its ``missing_ranges()`` are priced, and the merge is
  bit-identical to a cold monolithic run because per-trial reductions are
  trial-local;
* **single-layer delta** — a program differing from a cached sibling in a
  strict subset of its per-layer digests re-prices only the changed stack
  rows and places them over the cached block
  (:meth:`~repro.core.results.ResultAccumulator.with_rows`; rows are
  computed independently by every kernel path, so the composition is
  bit-identical to a cold run of the full program); its quote computes
  metrics for just those rows and copies the rest from the sibling's memo.

:meth:`ResultCache.lookup` only matches: it returns a
:class:`ResultCacheMatch` (the seed accumulator and what is left to price)
and prices nothing.  The service prices that residual — on its engine or on
a fleet, the cache cannot tell — merges it, and stores the merged entry with
:meth:`ResultCache.store`.  Returning a match rather than a residual plan
keeps an exact hit free of any plan lookup.

The cache is **tiered**: a bounded in-process LRU of live accumulators (their
blocks made read-only) in front of an optional on-disk store of serialized
:class:`~repro.core.results.PartialResult` blocks (raw ``.npy`` members plus
a JSON manifest per entry — the ``save_yet_store`` idiom of
:mod:`repro.yet.io`; the metrics memo is not persisted).  Disk entries survive
restarts: a new :class:`ResultCache` pointed at the same directory re-indexes
the manifests and serves them without re-running any kernel.  Eviction from
the LRU only drops *residency* for disk-backed entries; memory-only entries
are gone when evicted.

Delta correctness leans entirely on the content digests of
:mod:`repro.service.digests` — which is why the digest framing there is
length-prefixed and the YET digest covers every field of the table.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.core.results import PartialResult, ResultAccumulator
from repro.parallel.partitioner import TrialRange
from repro.service.digests import yet_digest, yet_prefix_digest
from repro.yet.table import YearEventTable

__all__ = ["ResultCache", "ResultCacheMatch", "ResultCacheStats"]

_ENTRY_MANIFEST = "result_entry.json"
_ENTRY_FORMAT_VERSION = 1


def _freeze(accumulator: ResultAccumulator) -> None:
    """Make an entry's blocks read-only in place: exact hits and the miss
    response hand out these very arrays, and its metrics memo must match them."""
    for partial in accumulator.partials:
        for block in (partial.losses, partial.max_occurrence):
            if block is not None:
                block.flags.writeable = False


@dataclass(frozen=True)
class ResultCacheStats:
    """Counters describing the result cache's behaviour so far."""

    exact_hits: int = 0
    append_hits: int = 0
    row_hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    disk_entries: int = 0
    disk_loads: int = 0
    maxsize: int = 0

    @property
    def hits(self) -> int:
        """Total lookups answered at least partially from cached blocks."""
        return self.exact_hits + self.append_hits + self.row_hits

    @property
    def requests(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        if not self.requests:
            return 0.0
        return self.hits / self.requests

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"result-cache: {self.entries}/{self.maxsize} resident "
            f"(+{self.disk_entries} on disk), "
            f"{self.exact_hits} exact / {self.append_hits} append / "
            f"{self.row_hits} row hits, {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.evictions} evictions"
        )

    def to_dict(self) -> dict[str, int | float]:
        """JSON-compatible counter snapshot (for serve responses)."""
        return {
            "exact_hits": self.exact_hits,
            "append_hits": self.append_hits,
            "row_hits": self.row_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "disk_entries": self.disk_entries,
            "disk_loads": self.disk_loads,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class _EntryMeta:
    """The small always-resident description of one cached entry."""

    key: tuple
    program_digest: str
    yet_digest: str
    config_digest: str
    trials: TrialRange
    n_rows: int
    row_digests: Tuple[str, ...] | None
    row_names: Tuple[str, ...] | None


@dataclass(frozen=True)
class ResultCacheMatch:
    """Outcome of one :meth:`ResultCache.lookup`: the seed accumulator and
    what is left to price — nothing, its ``missing_ranges()``, or the
    ``changed_rows``.  The service prices that residual and merges it.

    Attributes
    ----------
    status:
        ``"exact"`` (accumulator complete over the requested domain),
        ``"append"`` (accumulator extended over the requested domain;
        ``missing_ranges()`` is the trial range still to price),
        ``"rows"`` (complete sibling accumulator; ``changed_rows`` are the
        stack rows to re-price), or ``"miss"``.
    accumulator:
        The prepared accumulator (``None`` on a miss).  Exact and row
        matches share the cached object, read-only blocks and metrics memo
        included; append matches get a fresh, memo-less extension to fill.
    changed_rows:
        Row indices whose per-row digests differ (``"rows"`` only).
    """

    status: str
    accumulator: ResultAccumulator | None = None
    changed_rows: Tuple[int, ...] = ()


class ResultCache:
    """Tiered LRU + on-disk store of accumulated results with delta lookup.

    Parameters
    ----------
    maxsize:
        Maximum number of accumulators kept resident (LRU).  A resident
        entry pins its ``(n_rows, n_trials)`` year-loss blocks, so this
        bound is the cache's memory budget knob.
    disk_dir:
        Optional directory for the persistent tier.  Entries are written
        through on :meth:`store` and re-indexed on construction, so a
        restarted service warm-starts from prior runs.
    """

    def __init__(self, maxsize: int = 16, disk_dir: str | os.PathLike | None = None) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = int(maxsize)
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._lock = threading.Lock()
        self._meta: Dict[tuple, _EntryMeta] = {}
        self._resident: "OrderedDict[tuple, ResultAccumulator]" = OrderedDict()
        self._paths: Dict[tuple, Path] = {}
        # (program digest, config digest) -> key of the deepest-coverage
        # complete entry: the base an append-trials delta extends.
        self._latest: Dict[tuple, tuple] = {}
        # (yet digest, config digest) -> keys sharing that YET: the sibling
        # candidates a single-layer delta composes against.
        self._by_yet: Dict[tuple, List[tuple]] = {}
        self._exact_hits = 0
        self._append_hits = 0
        self._row_hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_loads = 0
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            self._scan_disk()

    # ------------------------------------------------------------------ #
    # Key plumbing
    # ------------------------------------------------------------------ #
    @staticmethod
    def entry_key(
        program_digest: str, yet_digest: str, config_digest: str, trials: TrialRange
    ) -> tuple:
        """The content-addressed key of one entry."""
        return (program_digest, yet_digest, config_digest, (trials.start, trials.stop))

    def _entry_dir(self, key: tuple) -> Path:
        assert self.disk_dir is not None
        token = "|".join(
            (key[0], key[1], key[2], f"{key[3][0]}:{key[3][1]}")
        ).encode()
        return self.disk_dir / hashlib.sha256(token).hexdigest()[:32]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def lookup(
        self,
        *,
        program_digest: str,
        config_digest: str,
        yet: YearEventTable,
        row_digests: Tuple[str, ...] | None = None,
    ) -> ResultCacheMatch:
        """Match one submission against the cached entries.

        Preference order: exact repeat, then append-trials delta, then
        single-layer (row) delta, then miss.  A YET *shorter* than every
        cached entry for the program is a miss — blocks are never sliced.
        """
        ydig = yet_digest(yet)
        trials = TrialRange(0, yet.n_trials)
        key = self.entry_key(program_digest, ydig, config_digest, trials)
        with self._lock:
            meta = self._meta.get(key)
            if meta is not None:
                accumulator = self._get_accumulator(key)
                if accumulator is not None:
                    self._exact_hits += 1
                    return ResultCacheMatch("exact", accumulator=accumulator)

            base_key = self._latest.get((program_digest, config_digest))
            if base_key is not None:
                base = self._meta[base_key]
                if base.trials.stop < yet.n_trials and base.yet_digest == (
                    yet_prefix_digest(yet, base.trials.stop)
                ):
                    accumulator = self._get_accumulator(base_key)
                    if accumulator is not None:
                        self._append_hits += 1
                        return ResultCacheMatch(
                            "append", accumulator=accumulator.extended(trials)
                        )

            if row_digests is not None:
                for sibling_key in self._by_yet.get((ydig, config_digest), []):
                    sibling = self._meta[sibling_key]
                    if sibling.row_digests is None or (
                        len(sibling.row_digests) != len(row_digests)
                    ):
                        continue
                    changed = tuple(
                        row
                        for row, (ours, theirs) in enumerate(
                            zip(row_digests, sibling.row_digests)
                        )
                        if ours != theirs
                    )
                    if not changed or len(changed) == len(row_digests):
                        continue
                    accumulator = self._get_accumulator(sibling_key)
                    if accumulator is not None:
                        self._row_hits += 1
                        return ResultCacheMatch(
                            "rows",
                            accumulator=accumulator,
                            changed_rows=changed,
                        )

            self._misses += 1
            return ResultCacheMatch("miss")

    # ------------------------------------------------------------------ #
    # Store
    # ------------------------------------------------------------------ #
    def store(
        self,
        *,
        program_digest: str,
        yet_digest: str,
        config_digest: str,
        accumulator: ResultAccumulator,
        row_digests: Tuple[str, ...] | None = None,
    ) -> None:
        """Insert (or refresh) one *complete* accumulator.

        Write-through: with a ``disk_dir`` configured the entry's blocks
        are persisted immediately, so later processes (and evicted-but-
        disk-backed lookups) can reload them.
        """
        if not accumulator.is_complete:
            raise ValueError("only complete accumulators can be cached")
        _freeze(accumulator)
        key = self.entry_key(program_digest, yet_digest, config_digest, accumulator.trials)
        meta = _EntryMeta(
            key=key,
            program_digest=program_digest,
            yet_digest=yet_digest,
            config_digest=config_digest,
            trials=accumulator.trials,
            n_rows=accumulator.n_rows,
            row_digests=tuple(row_digests) if row_digests is not None else None,
            row_names=accumulator.row_names,
        )
        with self._lock:
            self._meta[key] = meta
            self._resident[key] = accumulator
            self._resident.move_to_end(key)
            if self.disk_dir is not None:
                self._paths[key] = self._write_entry(key, meta, accumulator)
            self._index(meta)
            self._evict_locked()

    # ------------------------------------------------------------------ #
    # Stats / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> ResultCacheStats:
        """A snapshot of the cache counters."""
        with self._lock:
            return ResultCacheStats(
                exact_hits=self._exact_hits,
                append_hits=self._append_hits,
                row_hits=self._row_hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._resident),
                disk_entries=len(self._paths),
                disk_loads=self._disk_loads,
                maxsize=self.maxsize,
            )

    def clear(self) -> None:
        """Drop every resident accumulator and index (stats are kept).

        Disk entries are *not* deleted; with a ``disk_dir`` configured they
        are re-indexed immediately, so the cache keeps serving them.
        """
        with self._lock:
            self._meta.clear()
            self._resident.clear()
            self._paths.clear()
            self._latest.clear()
            self._by_yet.clear()
        if self.disk_dir is not None:
            self._scan_disk()

    def __len__(self) -> int:
        with self._lock:
            return len(self._meta)

    # ------------------------------------------------------------------ #
    # Internals (callers hold self._lock)
    # ------------------------------------------------------------------ #
    def _index(self, meta: _EntryMeta) -> None:
        latest_key = (meta.program_digest, meta.config_digest)
        current = self._latest.get(latest_key)
        if current is None or self._meta[current].trials.stop <= meta.trials.stop:
            self._latest[latest_key] = meta.key
        siblings = self._by_yet.setdefault((meta.yet_digest, meta.config_digest), [])
        if meta.key not in siblings:
            siblings.append(meta.key)

    def _deindex(self, meta: _EntryMeta) -> None:
        latest_key = (meta.program_digest, meta.config_digest)
        if self._latest.get(latest_key) == meta.key:
            # Re-point at the deepest surviving entry for this (program,
            # config) so append-trials deltas keep hitting after eviction;
            # the removed entry is already popped from self._meta.
            survivor: _EntryMeta | None = None
            for candidate in self._meta.values():
                if (candidate.program_digest, candidate.config_digest) != latest_key:
                    continue
                if survivor is None or candidate.trials.stop > survivor.trials.stop:
                    survivor = candidate
            if survivor is None:
                del self._latest[latest_key]
            else:
                self._latest[latest_key] = survivor.key
        siblings = self._by_yet.get((meta.yet_digest, meta.config_digest))
        if siblings is not None:
            if meta.key in siblings:
                siblings.remove(meta.key)
            if not siblings:
                del self._by_yet[(meta.yet_digest, meta.config_digest)]

    def _evict_locked(self) -> None:
        while len(self._resident) > self.maxsize:
            key, _ = self._resident.popitem(last=False)
            self._evictions += 1
            if key not in self._paths:
                # Memory-only entry: evicting residency IS deleting it.
                self._deindex(self._meta.pop(key))

    def _get_accumulator(self, key: tuple) -> ResultAccumulator | None:
        accumulator = self._resident.get(key)
        if accumulator is not None:
            self._resident.move_to_end(key)
            return accumulator
        path = self._paths.get(key)
        if path is None:
            return None
        accumulator = self._read_entry(key, path)
        if accumulator is None:
            # The directory vanished underneath us; forget the entry.
            self._deindex(self._meta.pop(key))
            del self._paths[key]
            return None
        self._disk_loads += 1
        self._resident[key] = accumulator
        self._resident.move_to_end(key)
        self._evict_locked()
        return accumulator

    # ------------------------------------------------------------------ #
    # Disk tier
    # ------------------------------------------------------------------ #
    def _write_entry(
        self, key: tuple, meta: _EntryMeta, accumulator: ResultAccumulator
    ) -> Path:
        directory = self._entry_dir(key)
        directory.mkdir(parents=True, exist_ok=True)
        blocks = [
            partial.save(directory, f"block_{partial.trials.start}_{partial.trials.stop}")
            for partial in accumulator.partials
        ]
        manifest = {
            "format_version": _ENTRY_FORMAT_VERSION,
            "program_digest": meta.program_digest,
            "yet_digest": meta.yet_digest,
            "config_digest": meta.config_digest,
            "trials": [meta.trials.start, meta.trials.stop],
            "n_rows": meta.n_rows,
            "row_digests": list(meta.row_digests) if meta.row_digests is not None else None,
            "row_names": list(meta.row_names) if meta.row_names is not None else None,
            "blocks": blocks,
        }
        (directory / _ENTRY_MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n")
        return directory

    def _read_entry(self, key: tuple, path: Path) -> ResultAccumulator | None:
        meta = self._meta[key]
        try:
            manifest = json.loads((path / _ENTRY_MANIFEST).read_text())
            accumulator = ResultAccumulator(
                meta.n_rows, meta.trials, row_names=meta.row_names
            )
            for entry in manifest["blocks"]:
                accumulator.add(PartialResult.load(path, entry))
        except (OSError, ValueError, KeyError):
            return None
        if not accumulator.is_complete:
            return None
        _freeze(accumulator)
        return accumulator

    def _scan_disk(self) -> None:
        assert self.disk_dir is not None
        for manifest_path in sorted(self.disk_dir.glob(f"*/{_ENTRY_MANIFEST}")):
            try:
                manifest = json.loads(manifest_path.read_text())
                if int(manifest.get("format_version", -1)) != _ENTRY_FORMAT_VERSION:
                    continue
                trials = TrialRange(*(int(v) for v in manifest["trials"]))
                row_digests = manifest.get("row_digests")
                row_names = manifest.get("row_names")
                meta = _EntryMeta(
                    key=self.entry_key(
                        manifest["program_digest"],
                        manifest["yet_digest"],
                        manifest["config_digest"],
                        trials,
                    ),
                    program_digest=manifest["program_digest"],
                    yet_digest=manifest["yet_digest"],
                    config_digest=manifest["config_digest"],
                    trials=trials,
                    n_rows=int(manifest["n_rows"]),
                    row_digests=tuple(row_digests) if row_digests is not None else None,
                    row_names=tuple(row_names) if row_names is not None else None,
                )
            except (OSError, ValueError, KeyError, TypeError):
                continue
            with self._lock:
                self._meta[meta.key] = meta
                self._paths[meta.key] = manifest_path.parent
                self._index(meta)
