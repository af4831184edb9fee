"""Content-addressed LRU cache of lowered execution plans.

The expensive part of answering a pricing request is not the kernel pass —
it is everything *before* it: lowering the program to an
:class:`~repro.core.plan.ExecutionPlan` and building each layer's
term-netted combined row.  All of that work is a pure function of the
program contents, the YET and the plan-relevant config — exactly what the
content digests of :mod:`repro.service.digests` capture — so
:class:`PlanCache` memoizes it: the first request for a workload pays the
lowering ("cold"), every later request for the same content reuses the
cached plan ("warm").  A plan references its layers' rows instead of
copying them into a stack, so an entry is a cheap shell; the gathers
themselves are reused through :mod:`repro.core.row_store`.

A cached :class:`~repro.core.plan.ExecutionPlan` keeps its source layers and
YET alive; the cache is therefore bounded (LRU, ``maxsize`` entries) and the
eviction order is recency of use.  Eviction also releases any multicore
shared-memory workspace published for the plan (the workspace is finalized
when the plan object is garbage collected — see
:class:`~repro.core.multicore.MulticoreEngine`).

The cache is thread-safe: ``are serve`` answers requests from one process
but nothing stops a user from sharing a :class:`~repro.service.service.RiskService`
across threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Tuple

from repro.core.plan import ExecutionPlan

__all__ = ["CacheStats", "PlanCache"]


@dataclass(frozen=True)
class CacheStats:
    """Counters describing the cache's behaviour so far."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    maxsize: int = 0

    @property
    def requests(self) -> int:
        """Total lookups served (hits + misses)."""
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
            f"plan-cache: {self.entries}/{self.maxsize} entries, "
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.evictions} evictions"
        )


class PlanCache:
    """LRU mapping of content-digest keys to lowered :class:`ExecutionPlan`.

    Keys are hashable tuples of content digests (built by
    :class:`~repro.service.service.RiskService` from
    :mod:`repro.service.digests`); values are plans — cheap shells that
    reference their layers' cached rows rather than copy them — so a hit
    skips the lowering, and the row store serves the gathers.
    """

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[Hashable, ExecutionPlan]" = OrderedDict()
        self._lock = threading.Lock()
        # Per-key build locks: concurrent misses on the same key must run
        # the expensive lowering exactly once (see get_or_build).  Each
        # value is a [lock, waiter_count] pair; the entry is dropped when
        # the last waiter leaves.
        self._build_locks: dict[Hashable, list] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> ExecutionPlan | None:
        """The cached plan for ``key``, or ``None`` (counts a hit/miss)."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return plan

    def peek(self, key: Hashable) -> ExecutionPlan | None:
        """The cached plan for ``key`` without counting a hit/miss.

        Does not refresh the LRU order either — a diagnostic/auxiliary read
        must not distort the cache's recency or its monitoring counters.
        """
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, plan: ExecutionPlan) -> None:
        """Insert (or refresh) a plan, evicting the least recently used."""
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def get_or_build(
        self, key: Hashable, builder: Callable[[], ExecutionPlan]
    ) -> Tuple[ExecutionPlan, bool]:
        """``(plan, was_hit)`` — build and insert via ``builder`` on a miss.

        Concurrent misses on the same key serialise on a per-key build lock
        so the expensive lowering runs exactly once: the first thread in
        builds and inserts, every other thread blocks on the key's lock and
        then reads the freshly inserted plan instead of re-running
        ``builder``.  (Misses on *different* keys still build in parallel.)
        """
        plan = self.get(key)
        if plan is not None:
            return plan, True
        with self._lock:
            entry = self._build_locks.get(key)
            if entry is None:
                entry = self._build_locks[key] = [threading.Lock(), 0]
            entry[1] += 1
        lock: threading.Lock = entry[0]
        try:
            with lock:
                plan = self.peek(key)
                if plan is None:
                    plan = builder()
                    self.put(key, plan)
        finally:
            with self._lock:
                entry[1] -= 1
                if entry[1] == 0:
                    self._build_locks.pop(key, None)
        return plan, False

    def clear(self) -> None:
        """Drop every cached plan (stats are kept)."""
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the cache counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                maxsize=self.maxsize,
            )
