"""Shared utilities for the aggregate risk analysis library.

This subpackage contains small, dependency-free helpers used across every
other subpackage:

* :mod:`repro.utils.rng` — deterministic random number generator management,
* :mod:`repro.utils.timing` — wall-clock timers and phase accumulators,
* :mod:`repro.utils.validation` — argument validation helpers with consistent
  error messages,
* :mod:`repro.utils.arrays` — NumPy array helpers (segment reductions,
  flattened ragged-array views) used by the vectorized engine backends,
* :mod:`repro.utils.digest` — the framed SHA-256 content digest the
  immutable tables, layers and programs carry.
"""

from repro.utils.arrays import (
    as_float_array,
    as_int_array,
    cumulative_within_segments,
    segment_lengths,
    segment_max,
    segment_sum,
    validate_offsets,
)
from repro.utils.rng import SeedSequenceFactory, derive_rng, spawn_rngs
from repro.utils.timing import PhaseTimer, Timer, TimingBreakdown
from repro.utils.validation import (
    ensure_in_range,
    ensure_non_negative,
    ensure_positive,
    ensure_probability,
)

__all__ = [
    "SeedSequenceFactory",
    "derive_rng",
    "spawn_rngs",
    "Timer",
    "PhaseTimer",
    "TimingBreakdown",
    "ensure_positive",
    "ensure_non_negative",
    "ensure_probability",
    "ensure_in_range",
    "as_float_array",
    "as_int_array",
    "segment_sum",
    "segment_max",
    "segment_lengths",
    "cumulative_within_segments",
    "validate_offsets",
]
