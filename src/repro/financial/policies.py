"""Vectorised application of financial and layer terms.

These are the numerical kernels corresponding to lines 6–17 of the paper's
basic algorithm, written as array operations so the vectorized, chunked and
multicore backends can apply them to whole trials (or whole Year Event
Tables) at once.  The sequential backend uses the scalar methods on
:class:`~repro.financial.terms.FinancialTerms` / ``LayerTerms`` instead, which
gives the tests two independent implementations to cross-check.
"""

from __future__ import annotations

import numpy as np

from repro.financial.terms import FinancialTerms, LayerTerms, LayerTermsVectors
from repro.utils.arrays import (
    cumulative_within_segments,
    segment_sum,
    segment_sum_2d,
    validate_offsets,
)

__all__ = [
    "apply_financial_terms",
    "apply_financial_terms_matrix",
    "apply_occurrence_terms",
    "apply_occurrence_terms_batch",
    "apply_aggregate_terms_cumulative",
    "aggregate_terms_shortcut",
    "aggregate_terms_shortcut_batch",
    "clip_aggregate_totals",
]


def apply_financial_terms(losses: np.ndarray, terms: FinancialTerms) -> np.ndarray:
    """Apply one ELT's financial terms ``I`` to an array of event losses.

    Vectorised form of lines 6–7 of the basic algorithm for a single ELT.
    """
    values = np.asarray(losses, dtype=np.float64) * terms.fx_rate
    np.subtract(values, terms.retention, out=values)
    np.clip(values, 0.0, terms.limit, out=values)
    values *= terms.share
    return values


def apply_financial_terms_matrix(
    losses: np.ndarray,
    retentions: np.ndarray,
    limits: np.ndarray,
    shares: np.ndarray,
    fx_rates: np.ndarray | None = None,
) -> np.ndarray:
    """Apply per-ELT terms to an ``(n_elts, n_events)`` loss matrix in place-ish.

    Each row ``i`` of ``losses`` is transformed with the ``i``-th retention,
    limit, share and FX rate (broadcast over the event axis).  Returns a new
    array; the input is not modified.
    """
    matrix = np.asarray(losses, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"losses must be 2-D (n_elts, n_events), got shape {matrix.shape}")
    n_elts = matrix.shape[0]
    retentions = np.asarray(retentions, dtype=np.float64).reshape(n_elts, 1)
    limits = np.asarray(limits, dtype=np.float64).reshape(n_elts, 1)
    shares = np.asarray(shares, dtype=np.float64).reshape(n_elts, 1)
    if fx_rates is None:
        result = matrix.copy()
    else:
        result = matrix * np.asarray(fx_rates, dtype=np.float64).reshape(n_elts, 1)
    np.subtract(result, retentions, out=result)
    np.clip(result, 0.0, limits, out=result)
    result *= shares
    return result


def apply_occurrence_terms(occurrence_losses: np.ndarray, terms: LayerTerms) -> np.ndarray:
    """Apply ``T_OccR``/``T_OccL`` to per-occurrence losses (lines 10–11)."""
    values = np.asarray(occurrence_losses, dtype=np.float64) - terms.occurrence_retention
    np.clip(values, 0.0, terms.occurrence_limit, out=values)
    return values


def apply_occurrence_terms_batch(
    occurrence_losses: np.ndarray,
    vectors: LayerTermsVectors,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply every layer's ``T_OccR``/``T_OccL`` to an ``(n_layers, n_events)`` matrix.

    Row ``i`` of the input holds layer ``i``'s combined per-event losses; the
    ``i``-th occurrence retention and limit broadcast over that row.  This is
    the batched form of :func:`apply_occurrence_terms` used by the fused
    multi-layer kernel.  Pass ``out=occurrence_losses`` to transform a
    scratch gather buffer in place and avoid a second full-size allocation.
    """
    matrix = np.asarray(occurrence_losses, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(
            f"occurrence_losses must be 2-D (n_layers, n_events), got shape {matrix.shape}"
        )
    if matrix.shape[0] != vectors.n_layers:
        raise ValueError(
            f"expected {vectors.n_layers} rows, got {matrix.shape[0]}"
        )
    values = np.subtract(matrix, vectors.occurrence_retentions[:, None], out=out)
    np.clip(values, 0.0, vectors.occurrence_limits[:, None], out=values)
    return values


def apply_aggregate_terms_cumulative(
    occurrence_losses: np.ndarray,
    trial_offsets: np.ndarray,
    terms: LayerTerms,
) -> np.ndarray:
    """Full cumulative-pass application of the aggregate terms (lines 12–19).

    For each trial (segment of ``occurrence_losses`` delimited by
    ``trial_offsets``):

    1. build the running cumulative sum of occurrence losses,
    2. clip every prefix sum with ``min(max(. - T_AggR, 0), T_AggL)``,
    3. difference consecutive clipped prefixes,
    4. sum the differences — the trial's year loss.

    Because the clipped prefix differences telescope, the result equals
    :func:`aggregate_terms_shortcut`; the full pass is retained because it is
    the literal transcription of the paper's algorithm and because it exposes
    the per-event *net* contributions needed by extensions such as
    reinstatement accounting.
    """
    losses = np.asarray(occurrence_losses, dtype=np.float64)
    offsets = validate_offsets(np.asarray(trial_offsets), losses.shape[0])
    cumulative = cumulative_within_segments(losses, offsets)
    clipped = np.clip(cumulative - terms.aggregate_retention, 0.0, terms.aggregate_limit)
    # Difference within each segment: subtract the previous clipped value,
    # using 0 at each segment start.
    deltas = np.empty_like(clipped)
    if clipped.size:
        deltas[0] = clipped[0]
        deltas[1:] = clipped[1:] - clipped[:-1]
        starts = offsets[:-1]
        starts = starts[starts < clipped.size]
        deltas[starts] = clipped[starts]
    return segment_sum(deltas, offsets)


def aggregate_terms_shortcut(
    occurrence_losses: np.ndarray,
    trial_offsets: np.ndarray,
    terms: LayerTerms,
) -> np.ndarray:
    """Telescoped application of the aggregate terms.

    The sum of clipped-prefix differences within a trial telescopes to the
    clipped total, so the year loss is simply
    ``min(max(sum(occ losses) - T_AggR, 0), T_AggL)``.  This is the form
    every vectorised path uses; its agreement with the full cumulative pass
    (up to the rounding of the prefix sums) is asserted by property-based
    tests.
    """
    losses = np.asarray(occurrence_losses, dtype=np.float64)
    offsets = validate_offsets(np.asarray(trial_offsets), losses.shape[0])
    totals = segment_sum(losses, offsets)
    return np.clip(totals - terms.aggregate_retention, 0.0, terms.aggregate_limit)


def clip_aggregate_totals(totals: np.ndarray, vectors: LayerTermsVectors) -> np.ndarray:
    """Clip per-trial occurrence totals with every layer's ``T_AggR``/``T_AggL``.

    The final step of the telescoped aggregate pass, shared by
    :func:`aggregate_terms_shortcut_batch` and the streamed fused kernel so
    the aggregate-term semantics live in exactly one place.  ``totals`` has
    shape ``(n_layers, n_trials)``; a new year-loss matrix is returned.
    """
    values = np.asarray(totals, dtype=np.float64) - vectors.aggregate_retentions[:, None]
    np.clip(values, 0.0, vectors.aggregate_limits[:, None], out=values)
    return values


def aggregate_terms_shortcut_batch(
    occurrence_losses: np.ndarray,
    trial_offsets: np.ndarray,
    vectors: LayerTermsVectors,
) -> np.ndarray:
    """Telescoped aggregate terms for every layer at once.

    Batched form of :func:`aggregate_terms_shortcut`: per-trial totals are
    taken row-wise over the ``(n_layers, n_events)`` occurrence-loss matrix
    and each row is clipped with its own ``T_AggR``/``T_AggL``.  Returns an
    ``(n_layers, n_trials)`` year-loss matrix.
    """
    matrix = np.asarray(occurrence_losses, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(
            f"occurrence_losses must be 2-D (n_layers, n_events), got shape {matrix.shape}"
        )
    return clip_aggregate_totals(segment_sum_2d(matrix, trial_offsets), vectors)
