"""Year Event Table simulation.

Real YETs are produced once by the catastrophe-model vendor and shipped as
data; here we simulate them from a catalog:

1. the number of occurrences in each trial is drawn from a frequency model
   (Poisson over the catalog's total annual rate by default),
2. the identity of each occurrence is drawn from the catalog's per-event rate
   distribution (independent occurrences given the count),
3. each occurrence receives a timestamp in ``[0, 1)`` drawn from the peril's
   seasonality profile (uniform when no profile is supplied), and
4. occurrences within a trial are sorted by timestamp, matching the paper's
   definition of a trial as a time-ordered set of (event, time) tuples.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.catalog.events import EventCatalog
from repro.catalog.frequency import FrequencyModel, PoissonFrequency
from repro.catalog.peril import Peril, PerilProfile
from repro.utils.rng import RNGLike, derive_rng
from repro.utils.validation import ensure_positive
from repro.yet.table import YearEventTable

__all__ = ["YETSimulator"]


class YETSimulator:
    """Samples Year Event Tables from an event catalog."""

    def __init__(
        self,
        catalog: EventCatalog,
        frequency_model: FrequencyModel | None = None,
        peril_profiles: Mapping[Peril, PerilProfile] | None = None,
        min_events_per_trial: int = 0,
        max_events_per_trial: int | None = None,
    ) -> None:
        if catalog.size == 0:
            raise ValueError("cannot simulate a YET from an empty catalog")
        self.catalog = catalog
        self.frequency_model = frequency_model or PoissonFrequency(catalog.total_annual_rate)
        self.peril_profiles = dict(peril_profiles) if peril_profiles else {}
        if min_events_per_trial < 0:
            raise ValueError("min_events_per_trial must be non-negative")
        if max_events_per_trial is not None and max_events_per_trial < max(min_events_per_trial, 1):
            raise ValueError("max_events_per_trial must be >= max(min_events_per_trial, 1)")
        self.min_events_per_trial = int(min_events_per_trial)
        self.max_events_per_trial = max_events_per_trial
        self._event_probabilities = catalog.occurrence_probabilities()

    # ------------------------------------------------------------------ #
    # Timestamp sampling
    # ------------------------------------------------------------------ #
    def _sample_timestamps(self, event_ids: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample within-year occurrence times honouring peril seasonality."""
        n = event_ids.shape[0]
        times = rng.random(n)
        if not self.peril_profiles:
            return times
        peril_codes = self.catalog.peril_codes[event_ids]
        for code, peril in enumerate(self.catalog.peril_order):
            profile = self.peril_profiles.get(peril)
            if profile is None or profile.season_concentration <= 0.0:
                continue
            mask = peril_codes == code
            count = int(mask.sum())
            if count == 0:
                continue
            # Wrapped-normal seasonality: peak at season_peak with a spread
            # inversely proportional to the concentration.
            spread = 1.0 / (2.0 * np.sqrt(profile.season_concentration))
            sampled = rng.normal(profile.season_peak, spread, size=count)
            times[mask] = np.mod(sampled, 1.0)
        return times

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def simulate(
        self,
        n_trials: int,
        rng: RNGLike = None,
        with_timestamps: bool = True,
    ) -> YearEventTable:
        """Simulate a YET with ``n_trials`` trials.

        Parameters
        ----------
        n_trials:
            Number of trials (simulated contractual years).
        rng:
            Seed or generator.
        with_timestamps:
            Whether to sample and store occurrence timestamps (disable for
            benchmark workloads where only the event sequence matters).
        """
        ensure_positive(n_trials, "n_trials")
        generator = derive_rng(rng)

        counts = self.frequency_model.clipped_counts(
            int(n_trials),
            generator,
            min_events=self.min_events_per_trial,
            max_events=self.max_events_per_trial,
        )
        offsets = np.zeros(n_trials + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])

        event_ids = generator.choice(
            self.catalog.size, size=total, p=self._event_probabilities
        ).astype(np.int64)

        timestamps = None
        if with_timestamps:
            timestamps = self._sample_timestamps(event_ids, generator)
            # Sort each trial by timestamp: the YET is defined as time-ordered.
            for i in range(n_trials):
                start, stop = offsets[i], offsets[i + 1]
                if stop - start > 1:
                    order = np.argsort(timestamps[start:stop], kind="stable")
                    event_ids[start:stop] = event_ids[start:stop][order]
                    timestamps[start:stop] = timestamps[start:stop][order]

        return YearEventTable(event_ids, offsets, self.catalog.size, timestamps)

    def simulate_fixed_length(
        self,
        n_trials: int,
        events_per_trial: int,
        rng: RNGLike = None,
        with_timestamps: bool = False,
    ) -> YearEventTable:
        """Simulate a YET where every trial has exactly ``events_per_trial`` events.

        The paper's performance experiments fix the trial length (e.g. "1
        million trials, each trial comprising 1000 events"); this helper
        produces exactly that shape while still drawing event identities from
        the catalog's rate distribution.
        """
        ensure_positive(n_trials, "n_trials")
        ensure_positive(events_per_trial, "events_per_trial")
        generator = derive_rng(rng)
        total = int(n_trials) * int(events_per_trial)
        offsets = np.arange(0, total + 1, events_per_trial, dtype=np.int64)
        event_ids = generator.choice(
            self.catalog.size, size=total, p=self._event_probabilities
        ).astype(np.int64)
        timestamps = None
        if with_timestamps:
            timestamps = generator.random(total)
            matrix_t = timestamps.reshape(n_trials, events_per_trial)
            matrix_e = event_ids.reshape(n_trials, events_per_trial)
            order = np.argsort(matrix_t, axis=1, kind="stable")
            rows = np.arange(n_trials)[:, None]
            timestamps = matrix_t[rows, order].reshape(-1)
            event_ids = matrix_e[rows, order].reshape(-1)
        return YearEventTable(event_ids, offsets, self.catalog.size, timestamps)
