"""Trial-range partitioning.

The unit of parallel work in the aggregate analysis is the trial.
:func:`block_partition` splits the trial index range ``[0, n_trials)`` into
``k`` contiguous, nearly-equal blocks: the multicore backend's worker blocks
(``n_workers x oversubscription`` of them) and, under its sharding name
:func:`shard_partition`, the driver's trial shards.

:class:`WorkloadShape` records the dimensions of what is partitioned (trials x
events x ELTs x layers); results carry it, and the paper-figure cost models in
``benchmarks/paper`` consume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

__all__ = [
    "TrialRange",
    "WorkloadShape",
    "block_partition",
    "shard_partition",
]


@dataclass(frozen=True)
class TrialRange:
    """A contiguous range of trial indices ``[start, stop)`` owned by one work item."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"invalid trial range [{self.start}, {self.stop})")

    @property
    def size(self) -> int:
        """Number of trials in the range."""
        return self.stop - self.start

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.stop))

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class WorkloadShape:
    """Shape of an aggregate-analysis workload (one layer unless stated)."""

    n_trials: int
    events_per_trial: float
    n_elts: int
    n_layers: int = 1

    def __post_init__(self) -> None:
        if self.n_trials <= 0 or self.n_elts <= 0 or self.n_layers <= 0:
            raise ValueError("n_trials, n_elts and n_layers must be positive")
        if self.events_per_trial <= 0:
            raise ValueError("events_per_trial must be positive")

    @property
    def total_events(self) -> float:
        """Event occurrences across all trials (one layer)."""
        return self.n_trials * self.events_per_trial

    @property
    def total_lookups(self) -> float:
        """ELT lookups across all trials and layers (the paper's 15-billion figure)."""
        return self.total_events * self.n_elts * self.n_layers


def block_partition(n_trials: int, n_blocks: int) -> List[TrialRange]:
    """Split ``n_trials`` into at most ``n_blocks`` contiguous, nearly equal blocks.

    The first ``n_trials % n_blocks`` blocks receive one extra trial.  Every
    returned range is non-empty: with ``n_blocks > n_trials`` only
    ``n_trials`` single-trial blocks are produced, and zero trials produce an
    empty list.  An empty ``TrialRange`` is never emitted — a zero-size work
    item would make a worker pay its scheduling overhead for nothing and
    forces every consumer (the worker pool, accumulators) to special-case it.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be non-negative, got {n_trials}")
    if n_blocks <= 0:
        raise ValueError(f"n_blocks must be positive, got {n_blocks}")
    n_blocks = min(n_blocks, n_trials)
    if n_blocks == 0:
        return []
    base = n_trials // n_blocks
    remainder = n_trials % n_blocks
    ranges: List[TrialRange] = []
    start = 0
    for block in range(n_blocks):
        size = base + (1 if block < remainder else 0)
        ranges.append(TrialRange(start, start + size))
        start += size
    return ranges


def shard_partition(n_trials: int, n_shards: int) -> List[TrialRange]:
    """The trial-shard decomposition of the paper's map/reduce shape.

    Splits ``[0, n_trials)`` into at most ``n_shards`` contiguous, nearly
    equal, non-empty shards — the unit over which
    :class:`~repro.core.results.PartialResult` blocks are computed and merged.
    This is :func:`block_partition` under its sharding name: keeping a
    dedicated entry point lets the plan layer state its contract ("shards are
    disjoint, ordered, and cover the trial range") in one place.
    """
    return block_partition(n_trials, n_shards)

