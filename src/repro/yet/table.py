"""The Year Event Table container.

Storage layout follows the paper's basic implementation (Section III-B):

* "a vector consisting of all ``E_{i,k}``" — :attr:`YearEventTable.event_ids`,
  the event ids of every trial concatenated,
* "a vector ... indicating trial boundaries" — :attr:`YearEventTable.trial_offsets`,
  CSR-style offsets of length ``n_trials + 1``,
* plus the occurrence timestamps (fraction of the contractual year in
  ``[0, 1)``), kept sorted in ascending order within each trial.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.utils.arrays import segment_lengths, validate_offsets

__all__ = ["YearEventTable"]


class YearEventTable:
    """Flattened, trial-indexed table of pre-simulated event occurrences.

    Parameters
    ----------
    event_ids:
        Concatenated event ids of all trials (int32/int64).
    trial_offsets:
        CSR offsets, ``len == n_trials + 1``; trial ``i`` owns
        ``event_ids[trial_offsets[i]:trial_offsets[i+1]]``.
    timestamps:
        Occurrence times as fractions of the year, same length as
        ``event_ids``; must be non-decreasing within each trial.  Optional —
        some workloads only need the event sequence.
    catalog_size:
        Size of the catalog the event ids refer to.
    """

    def __init__(
        self,
        event_ids: np.ndarray,
        trial_offsets: np.ndarray,
        catalog_size: int,
        timestamps: np.ndarray | None = None,
    ) -> None:
        self.event_ids = np.ascontiguousarray(event_ids, dtype=np.int64)
        if self.event_ids.ndim != 1:
            raise ValueError("event_ids must be one-dimensional")
        self.trial_offsets = validate_offsets(
            np.asarray(trial_offsets), self.event_ids.shape[0], "trial_offsets"
        )
        if catalog_size <= 0:
            raise ValueError(f"catalog_size must be positive, got {catalog_size}")
        self.catalog_size = int(catalog_size)
        if self.event_ids.size and (
            self.event_ids.min() < 0 or self.event_ids.max() >= self.catalog_size
        ):
            raise ValueError("event ids must lie in [0, catalog_size)")

        if timestamps is None:
            self.timestamps = None
        else:
            ts = np.ascontiguousarray(timestamps, dtype=np.float64)
            if ts.shape != self.event_ids.shape:
                raise ValueError(
                    f"timestamps shape {ts.shape} does not match event_ids "
                    f"shape {self.event_ids.shape}"
                )
            if ts.size and (ts.min() < 0.0 or ts.max() > 1.0):
                raise ValueError("timestamps must lie in [0, 1]")
            self.timestamps = ts

    # ------------------------------------------------------------------ #
    # Shape accessors
    # ------------------------------------------------------------------ #
    @property
    def n_trials(self) -> int:
        """Number of trials (simulated contractual years)."""
        return int(self.trial_offsets.shape[0] - 1)

    @property
    def n_occurrences(self) -> int:
        """Total number of event occurrences across all trials."""
        return int(self.event_ids.shape[0])

    @property
    def events_per_trial(self) -> np.ndarray:
        """Number of events in each trial."""
        return segment_lengths(self.trial_offsets)

    @property
    def mean_events_per_trial(self) -> float:
        """Average trial length (the paper's ``|E_t|_av`` parameter)."""
        if self.n_trials == 0:
            return 0.0
        return self.n_occurrences / self.n_trials

    @property
    def event_bytes(self) -> int:
        """Bytes of the per-occurrence columns (event ids + timestamps).

        The quantity a per-shard byte budget divides
        (:func:`~repro.yet.io.shard_count_for_budget`); excludes the tiny
        offsets vector, matching :attr:`YetShardReader.event_bytes`.
        """
        total = self.event_ids.nbytes
        if self.timestamps is not None:
            total += self.timestamps.nbytes
        return int(total)

    @property
    def memory_bytes(self) -> int:
        """Approximate memory footprint of the stored arrays."""
        total = self.event_ids.nbytes + self.trial_offsets.nbytes
        if self.timestamps is not None:
            total += self.timestamps.nbytes
        return int(total)

    def __len__(self) -> int:
        return self.n_trials

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"YearEventTable(n_trials={self.n_trials}, "
            f"mean_events_per_trial={self.mean_events_per_trial:.1f}, "
            f"catalog_size={self.catalog_size})"
        )

    # ------------------------------------------------------------------ #
    # Trial access
    # ------------------------------------------------------------------ #
    def trial(self, index: int) -> np.ndarray:
        """Event ids of trial ``index`` (a view into the flat array)."""
        if not 0 <= index < self.n_trials:
            raise IndexError(f"trial index {index} out of range [0, {self.n_trials})")
        start, stop = self.trial_offsets[index], self.trial_offsets[index + 1]
        return self.event_ids[start:stop]

    def trial_timestamps(self, index: int) -> np.ndarray:
        """Timestamps of trial ``index`` (zeros if no timestamps stored)."""
        if not 0 <= index < self.n_trials:
            raise IndexError(f"trial index {index} out of range [0, {self.n_trials})")
        start, stop = self.trial_offsets[index], self.trial_offsets[index + 1]
        if self.timestamps is None:
            return np.zeros(int(stop - start), dtype=np.float64)
        return self.timestamps[start:stop]

    def iter_trials(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Iterate over (trial index, event id array) pairs."""
        for index in range(self.n_trials):
            yield index, self.trial(index)

    def trial_records(self, index: int) -> list[Tuple[int, float]]:
        """Trial as a list of (event id, timestamp) tuples, the paper's ``T_i``."""
        events = self.trial(index)
        times = self.trial_timestamps(index)
        return [(int(e), float(t)) for e, t in zip(events, times)]

    # ------------------------------------------------------------------ #
    # Slicing / partitioning (used by the parallel backends)
    # ------------------------------------------------------------------ #
    def trial_window(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(event_ids, local_offsets)`` of trials ``[start, stop)``.

        The event ids are a zero-copy view into the flat array; the offsets
        are rebased to the window (``local_offsets[0] == 0``).  This is the
        form the shard driver feeds to the backends: per-trial
        reductions are trial-local, so pricing a window produces exactly the
        columns a whole-table run would produce for those trials.
        """
        if not 0 <= start <= stop <= self.n_trials:
            raise IndexError(
                f"invalid trial window [{start}, {stop}) for {self.n_trials} trials"
            )
        lo = int(self.trial_offsets[start])
        return self.event_ids[lo : int(self.trial_offsets[stop])], (
            self.trial_offsets[start : stop + 1] - lo
        )

    def slice_trials(self, start: int, stop: int) -> "YearEventTable":
        """A new YET containing trials ``start:stop`` (copies the slice)."""
        if not 0 <= start <= stop <= self.n_trials:
            raise IndexError(f"invalid trial slice [{start}, {stop}) for {self.n_trials} trials")
        lo = int(self.trial_offsets[start])
        hi = int(self.trial_offsets[stop])
        offsets = self.trial_offsets[start : stop + 1] - lo
        timestamps = None if self.timestamps is None else self.timestamps[lo:hi]
        return YearEventTable(
            self.event_ids[lo:hi].copy(),
            offsets.copy(),
            self.catalog_size,
            None if timestamps is None else timestamps.copy(),
        )

    @classmethod
    def from_trials(
        cls,
        trials: Sequence[Sequence[int]],
        catalog_size: int,
        timestamps: Sequence[Sequence[float]] | None = None,
    ) -> "YearEventTable":
        """Build a YET from per-trial lists of event ids (convenience for tests)."""
        lengths = [len(trial) for trial in trials]
        offsets = np.zeros(len(trials) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        flat_events = np.concatenate(
            [np.asarray(trial, dtype=np.int64) for trial in trials]
        ) if trials and sum(lengths) else np.zeros(0, dtype=np.int64)
        flat_times = None
        if timestamps is not None:
            if [len(t) for t in timestamps] != lengths:
                raise ValueError("timestamps must have the same per-trial lengths as trials")
            flat_times = np.concatenate(
                [np.asarray(t, dtype=np.float64) for t in timestamps]
            ) if timestamps and sum(lengths) else np.zeros(0, dtype=np.float64)
        return cls(flat_events, offsets, catalog_size, flat_times)
