"""Wall-clock timing helpers.

The paper reports two kinds of timing results: end-to-end execution times
(Figures 2–6a) and a phase breakdown of where time goes inside the engine
(Figure 6b: event fetch, ELT lookup, financial terms, layer terms).  The
classes here provide both:

* :class:`Timer` — a simple context-manager stopwatch,
* :class:`PhaseTimer` — accumulates named phase durations over many calls,
* :class:`TimingBreakdown` — an immutable summary with percentage shares,
  which the Figure 6b benchmark prints directly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping

__all__ = ["Timer", "PhaseTimer", "TimingBreakdown"]


class Timer:
    """Context-manager stopwatch based on :func:`time.perf_counter`.

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed > 0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self._elapsed: float = 0.0
        self._running = False

    def start(self) -> "Timer":
        """Start (or restart) the timer."""
        self._start = time.perf_counter()
        self._running = True
        return self

    def stop(self) -> float:
        """Stop the timer and return the elapsed time in seconds."""
        if not self._running or self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self._elapsed += time.perf_counter() - self._start
        self._running = False
        return self._elapsed

    @property
    def elapsed(self) -> float:
        """Elapsed seconds (includes the running segment if still running)."""
        if self._running and self._start is not None:
            return self._elapsed + (time.perf_counter() - self._start)
        return self._elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


@dataclass(frozen=True)
class TimingBreakdown:
    """Immutable summary of per-phase durations.

    Attributes
    ----------
    seconds:
        Mapping of phase name to accumulated seconds.
    """

    seconds: Mapping[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Total seconds across all phases."""
        return float(sum(self.seconds.values()))

    def fraction(self, phase: str) -> float:
        """Fraction of total time spent in ``phase`` (0 when total is zero)."""
        total = self.total
        if total <= 0.0:
            return 0.0
        return float(self.seconds.get(phase, 0.0)) / total

    def percentages(self) -> Dict[str, float]:
        """Percentage share per phase, summing to ~100 for non-empty data."""
        return {name: 100.0 * self.fraction(name) for name in self.seconds}

    def merged_with(self, other: "TimingBreakdown") -> "TimingBreakdown":
        """Return a new breakdown with the two sets of durations summed."""
        merged: Dict[str, float] = dict(self.seconds)
        for name, value in other.seconds.items():
            merged[name] = merged.get(name, 0.0) + float(value)
        return TimingBreakdown(merged)

    def format_table(self) -> str:
        """Human-readable fixed-width table (used by the Fig. 6b bench)."""
        lines = [f"{'phase':<24}{'seconds':>12}{'share %':>10}"]
        pct = self.percentages()
        for name, secs in self.seconds.items():
            lines.append(f"{name:<24}{secs:>12.6f}{pct[name]:>10.2f}")
        lines.append(f"{'total':<24}{self.total:>12.6f}{100.0 if self.total else 0.0:>10.2f}")
        return "\n".join(lines)


class PhaseTimer:
    """Accumulates wall-clock time per named phase.

    The engine backends wrap each of the four algorithm phases in
    ``with timer.phase("elt_lookup"): ...`` blocks.  Timing can be disabled
    (``enabled=False``) to remove the (small) overhead from benchmark runs
    that only need end-to-end times.

    Examples
    --------
    >>> timer = PhaseTimer()
    >>> with timer.phase("lookup"):
    ...     _ = [i * i for i in range(100)]
    >>> timer.breakdown().seconds["lookup"] > 0
    True
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._seconds: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager measuring one occurrence of phase ``name``."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._seconds[name] = self._seconds.get(name, 0.0) + elapsed
            self._counts[name] = self._counts.get(name, 0) + 1

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Manually add ``seconds`` to phase ``name`` (used by the sequential backend)."""
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        self._seconds[name] = self._seconds.get(name, 0.0) + float(seconds)
        self._counts[name] = self._counts.get(name, 0) + int(count)

    def seconds(self, name: str) -> float:
        """Accumulated seconds for phase ``name`` (0.0 if never timed)."""
        return self._seconds.get(name, 0.0)

    def count(self, name: str) -> int:
        """Number of times phase ``name`` was entered."""
        return self._counts.get(name, 0)

    def breakdown(self) -> TimingBreakdown:
        """Snapshot of the accumulated per-phase times."""
        return TimingBreakdown(dict(self._seconds))

    def merge(self, other: "PhaseTimer") -> None:
        """Fold another timer's accumulations into this one (for workers)."""
        for name, secs in other._seconds.items():
            self._seconds[name] = self._seconds.get(name, 0.0) + secs
        for name, cnt in other._counts.items():
            self._counts[name] = self._counts.get(name, 0) + cnt
