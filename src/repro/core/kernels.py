"""Vectorised aggregate-analysis kernels.

These functions are the NumPy translation of the per-trial body of the
paper's basic algorithm (lines 3–19) operating on *all* trials of a Year
Event Table at once (or on a contiguous chunk of its flattened events).  They
are shared by the vectorized, chunked and multicore backends (and the native
backend's fallback) — the backends differ only in *how* they partition the
work, not in the maths.  Every path applies the aggregate terms with the one
telescoped algorithm (:func:`~repro.financial.policies.aggregate_terms_shortcut`);
the paper's literal cumulative pass is kept in the sequential reference and in
:func:`~repro.financial.policies.apply_aggregate_terms_cumulative`.

Layout: the ELT-lookup phase is memory-bound, so the layout its gather lands
in sets the cost of every later pass.  The fused kernel gathers a C-contiguous
``(n_rows, n_events)`` block — row by row from the layers' cached combined
net rows (referenced, never copied into a stack; whole-window blocks are
kept in :mod:`~repro.core.row_store`), or in one ``np.take`` from a backend's
contiguous stack — never ``stack[:, event_ids]``, whose event-major result
makes the occurrence terms and both ``reduceat`` passes stride across rows.

Summation-order contract, on which bit-identity across backends, shards and
caches rests: an event's combined loss is the left-to-right ELT-order sum
from ``0.0`` (:func:`~repro.elt.combined.scatter_net_losses`;
:func:`~repro.elt.combined.sum_elt_rows` on the per-ELT paths); a trial's
year loss is NumPy's pairwise ``reduceat`` over its segment, in the same
order whatever the strides (pinned in ``tests/utils/test_arrays.py``).

Term variants (a ``row_map``: many plan rows reading one gathered row) pay
per unique row where the identities allow:

* The per-trial maximum commutes with the occurrence terms.  ``f(x) =
  clip(x - T_OccR, 0, T_OccL)`` is monotone in floating point (subtraction
  rounds monotonically; ``max``/``min`` are exact), so ``max(f(x)) ==
  f(max(x))`` bit for bit, and an empty trial's ``initial`` ``0`` maps to
  ``f(0) == 0``.  The kernel reduces the *untermed* ``(n_unique,
  n_events)`` gather and applies ``f`` to the small ``(n_rows, n_trials)``
  expansion of the result.  (The one exception is a limit of ``-0.0``,
  under which every termed value is a zero and the two orders may disagree
  on its sign.)
* The sums do need the termed rows, but not an expanded gather: a stable
  ``argsort`` of ``row_map`` groups the plan rows, each unique row is
  subtracted once into its group's slice of one ``(n_rows, n_events)``
  scratch, one clip and one ``reduceat`` follow, and the small totals are
  put back in plan order.  The same floats meet the same operations, so
  the result is the expanded formula's, byte for byte.

Without a ``row_map`` there is nothing to share, and the pass is unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, Tuple

import numpy as np

from repro.core import row_store
from repro.core.phases import (
    PHASE_ELT_LOOKUP,
    PHASE_EVENT_FETCH,
    PHASE_FINANCIAL_TERMS,
    PHASE_LAYER_TERMS,
)
from repro.elt.combined import LayerLossMatrix, sum_elt_rows
from repro.financial.policies import (
    aggregate_terms_shortcut,
    aggregate_terms_shortcut_batch,
    apply_financial_terms_matrix,
    apply_occurrence_terms,
    apply_occurrence_terms_batch,
    clip_aggregate_totals,
)
from repro.financial.terms import LayerTerms, LayerTermsVectors
from repro.utils.arrays import (
    segment_max,
    segment_max_2d,
    segment_sum_2d,
    validate_offsets,
)
from repro.utils.timing import PhaseTimer

__all__ = [
    "combined_event_losses",
    "layer_trial_losses",
    "layer_trial_losses_chunked",
    "per_layer_trial_losses",
    "build_layer_loss_stack",
    "layer_trial_losses_batch",
    "replication_portfolio_losses",
]


def combined_event_losses(
    matrix: LayerLossMatrix,
    event_ids: np.ndarray,
    timer: PhaseTimer | None = None,
) -> np.ndarray:
    """Per-event losses combined across a layer's ELTs, net of financial terms.

    This covers lines 3–9 of the basic algorithm: gather every event's loss
    from every ELT (the random direct-access-table lookups), apply the per-ELT
    financial terms ``I`` and sum across ELTs.

    Parameters
    ----------
    matrix:
        The layer's dense loss matrix.
    event_ids:
        Flattened event ids (any number of trials' events concatenated).
    timer:
        Optional phase timer (``elt_lookup`` / ``financial_terms`` phases).
    """
    timer = timer if timer is not None else PhaseTimer(enabled=False)
    with timer.phase(PHASE_ELT_LOOKUP):
        gathered = matrix.gather(event_ids)
    with timer.phase(PHASE_FINANCIAL_TERMS):
        net = apply_financial_terms_matrix(
            gathered, matrix.retentions, matrix.limits, matrix.shares, matrix.fx_rates
        )
        combined = sum_elt_rows(net)
    return combined


def layer_trial_losses(
    matrix: LayerLossMatrix,
    event_ids: np.ndarray,
    trial_offsets: np.ndarray,
    terms: LayerTerms,
    record_max_occurrence: bool = True,
    timer: PhaseTimer | None = None,
) -> Tuple[np.ndarray, np.ndarray | None]:
    """Year losses (and optional per-trial maximum occurrence losses) of one layer.

    The full vectorised pipeline: event fetch -> ELT lookup -> financial terms
    -> occurrence terms -> aggregate terms, over every trial delimited by
    ``trial_offsets``.

    Returns
    -------
    (year_losses, max_occurrence_losses):
        ``year_losses`` has one entry per trial; ``max_occurrence_losses`` is
        ``None`` unless ``record_max_occurrence`` is set.
    """
    timer = timer if timer is not None else PhaseTimer(enabled=False)
    with timer.phase(PHASE_EVENT_FETCH):
        # The YET is already resident; "fetching" is materialising the flat
        # event-id view the gathers will consume (a contiguous copy mirrors
        # the engine reading the trial's events from the in-memory table).
        ids = np.ascontiguousarray(event_ids, dtype=np.int64)

    combined = combined_event_losses(matrix, ids, timer)

    with timer.phase(PHASE_LAYER_TERMS):
        occurrence = apply_occurrence_terms(combined, terms)
        year_losses = aggregate_terms_shortcut(occurrence, trial_offsets, terms)
        max_occurrence = (
            segment_max(occurrence, trial_offsets) if record_max_occurrence else None
        )
    return year_losses, max_occurrence


def per_layer_trial_losses(
    kernel: Callable[..., Tuple[np.ndarray, np.ndarray | None]],
    layer_inputs: Sequence[Any],
    terms: Sequence[LayerTerms],
    event_ids: np.ndarray,
    trial_offsets: np.ndarray,
    *,
    record_max_occurrence: bool = True,
    timer: PhaseTimer | None = None,
) -> Tuple[np.ndarray, np.ndarray | None]:
    """The per-layer loop every backend shares: one ``kernel`` call per row.

    ``kernel`` is a single-layer kernel with the signature of
    :func:`layer_trial_losses` (:func:`layer_trial_losses_chunked` with its
    chunk size bound, the sequential reference's per-trial loop, ...) and
    ``layer_inputs[row]`` is whatever it takes as its first argument — the
    layer's dense loss matrix for the NumPy kernels.  Returns the
    ``(n_rows, n_trials)`` year losses of the window and the matching
    maximum occurrence losses (``None`` unless recorded).
    """
    n_trials = len(trial_offsets) - 1
    losses = np.zeros((len(layer_inputs), n_trials), dtype=np.float64)
    max_occurrence = np.zeros_like(losses) if record_max_occurrence else None
    for row, (layer_input, layer_terms) in enumerate(zip(layer_inputs, terms)):
        year_losses, trial_max = kernel(
            layer_input,
            event_ids,
            trial_offsets,
            layer_terms,
            record_max_occurrence=record_max_occurrence,
            timer=timer,
        )
        losses[row] = year_losses
        if max_occurrence is not None:
            max_occurrence[row] = trial_max
    return losses, max_occurrence


def replication_portfolio_losses(year_losses: np.ndarray, n_layers: int) -> np.ndarray:
    """Per-replication portfolio year losses from fused replication rows.

    The replication-batched uncertainty engine prices ``R`` sampled program
    realisations as ``R * n_layers`` fused rows (replication-major).  This
    reduces that ``(R * n_layers, n_trials)`` year-loss matrix to the
    ``(R, n_trials)`` per-replication portfolio losses, summing each
    replication's layer block with exactly the reduction
    :meth:`~repro.ylt.table.YearLossTable.portfolio_losses` applies to a
    single program's YLT — so a batched replication reproduces the replay
    loop's portfolio losses bit for bit.
    """
    losses = np.asarray(year_losses, dtype=np.float64)
    if losses.ndim != 2:
        raise ValueError(f"year_losses must be 2-D, got shape {losses.shape}")
    if n_layers <= 0:
        raise ValueError(f"n_layers must be positive, got {n_layers}")
    if losses.shape[0] % n_layers:
        raise ValueError(
            f"{losses.shape[0]} fused rows do not divide into layers of {n_layers}"
        )
    n_replications = losses.shape[0] // n_layers
    # Reducing the middle axis of the (R, n_layers, n_trials) view adds the
    # layer rows sequentially per replication — the same accumulation order
    # as portfolio_losses' sum over axis 0 of each (n_layers, n_trials) block.
    losses = np.ascontiguousarray(losses)
    return losses.reshape(n_replications, n_layers, -1).sum(axis=1)


def build_layer_loss_stack(
    matrices: Sequence[LayerLossMatrix],
    timer: PhaseTimer | None = None,
) -> np.ndarray:
    """Copy every layer's combined net row into one contiguous matrix.

    Row ``i`` of the returned ``(n_layers, catalog_size)`` float64 matrix is
    :meth:`~repro.elt.combined.LayerLossMatrix.combined_net_losses` of
    ``matrices[i]``.  The fused NumPy paths gather from those rows in place;
    this on-demand copy is for callers whose contract is one buffer (the
    native C kernel, multicore's shared memory, the float32 tier).
    """
    if not matrices:
        raise ValueError("at least one layer loss matrix is required")
    catalog_sizes = {matrix.catalog_size for matrix in matrices}
    if len(catalog_sizes) != 1:
        raise ValueError(
            f"all layers must share one catalog size, got {sorted(catalog_sizes)}"
        )
    timer = timer if timer is not None else PhaseTimer(enabled=False)
    catalog_size = catalog_sizes.pop()
    stack = np.empty((len(matrices), catalog_size), dtype=np.float64)
    with timer.phase(PHASE_FINANCIAL_TERMS):
        for row, matrix in enumerate(matrices):
            stack[row] = matrix.combined_net_losses()
    return stack


def layer_trial_losses_batch(
    matrices: Sequence[LayerLossMatrix],
    event_ids: np.ndarray,
    trial_offsets: np.ndarray,
    terms: Sequence[LayerTerms] | LayerTermsVectors,
    record_max_occurrence: bool = True,
    timer: PhaseTimer | None = None,
    chunk_events: int | None = None,
    stack: np.ndarray | Sequence[np.ndarray] | None = None,
    row_map: np.ndarray | None = None,
) -> Tuple[np.ndarray, np.ndarray | None]:
    """Year losses of *all* layers in one fused pass over the YET.

    Instead of re-gathering the event-id array against each layer's dense
    loss matrix separately (the per-layer loop of :func:`layer_trial_losses`),
    each unique term-netted row is gathered once into a row-major block (see
    the module docstring) and the occurrence/aggregate terms are applied as
    broadcast expressions over the resulting ``(n_layers, n_events)`` matrix.

    Parameters
    ----------
    matrices:
        One dense loss matrix per row (ignored when ``stack`` is given).
    terms:
        Per-layer :class:`LayerTerms` (or an already-stacked
        :class:`LayerTermsVectors`).
    chunk_events:
        When given, the stream is processed in trial-aligned chunks of about
        this many event occurrences, bounding the working set at roughly
        ``(n_layers, chunk_events)`` doubles — bit-identically to the
        unchunked gather (see :func:`_layer_trial_losses_batch_streamed`).
    stack:
        The rows to gather from: a contiguous :func:`build_layer_loss_stack`
        matrix, or a sequence of ``(catalog_size,)`` rows
        (:meth:`~repro.core.plan.ExecutionPlan.rows`), whose whole-window
        gathers go through the :mod:`~repro.core.row_store`.
    row_map:
        Optional ``(n_layers,)`` int array mapping each output row to one of
        the *deduplicated* rows: when many layers share one term-netted loss
        row (candidate-term variants of the same exposure), it is gathered
        once and every layer mapped to it reads that gather — the same
        floats as gathering from a fully expanded stack.  The per-trial
        max is then taken per unique row and the occurrence terms are
        written per group of rows (module docstring).  Without
        ``row_map`` there must be one row per layer.

    Returns
    -------
    (year_losses, max_occurrence_losses):
        ``year_losses`` has shape ``(n_layers, n_trials)``;
        ``max_occurrence_losses`` matches it, or is ``None`` unless
        ``record_max_occurrence`` is set.
    """
    timer = timer if timer is not None else PhaseTimer(enabled=False)
    vectors = terms if isinstance(terms, LayerTermsVectors) else LayerTermsVectors.from_terms(terms)
    if stack is None:
        stack = [matrix.combined_net_losses() for matrix in matrices]
    if isinstance(stack, np.ndarray):
        stack = np.asarray(stack, dtype=np.float64)
        if stack.ndim != 2:
            raise ValueError(f"stack must be 2-D (n_layers, catalog_size), got shape {stack.shape}")
    elif len({len(row) for row in stack}) != 1:
        sizes = sorted({len(row) for row in stack})
        raise ValueError(f"all layers must share one catalog size, got {sizes}")
    catalog_size = len(stack[0])
    if row_map is not None:
        row_map = np.ascontiguousarray(row_map, dtype=np.int64)
        if row_map.ndim != 1 or row_map.shape[0] != vectors.n_layers:
            raise ValueError(
                f"row_map must have one entry per layer ({vectors.n_layers}), "
                f"got shape {row_map.shape}"
            )
        if row_map.size and (row_map.min() < 0 or row_map.max() >= len(stack)):
            raise IndexError("row_map indices out of range of the stack")
    elif len(stack) != vectors.n_layers:
        raise ValueError(
            f"stack has {len(stack)} layers but terms describe {vectors.n_layers}"
        )

    with timer.phase(PHASE_EVENT_FETCH):
        ids = np.ascontiguousarray(event_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= catalog_size):
        raise IndexError("event ids out of range of the catalog")

    if chunk_events is not None:
        if chunk_events <= 0:
            raise ValueError(f"chunk_events must be positive, got {chunk_events}")
        return _layer_trial_losses_batch_streamed(
            stack, ids, trial_offsets, vectors, int(chunk_events),
            record_max_occurrence, timer, row_map=row_map,
        )

    with timer.phase(PHASE_ELT_LOOKUP):
        gathered = _gather(stack, ids, row_store.ROW_STORE.take)

    with timer.phase(PHASE_LAYER_TERMS):
        if row_map is None:
            occurrence = _occurrence_losses(gathered, vectors)
            year_losses = aggregate_terms_shortcut_batch(occurrence, trial_offsets, vectors)
            max_occurrence = (
                segment_max_2d(occurrence, trial_offsets) if record_max_occurrence else None
            )
        else:
            groups = _RowGroups(row_map, vectors)
            totals = segment_sum_2d(groups.occurrence_losses(gathered), trial_offsets)
            year_losses = clip_aggregate_totals(groups.unsort(totals), vectors)
            max_occurrence = (
                groups.occurrence_maxima(segment_max_2d(gathered, trial_offsets))
                if record_max_occurrence
                else None
            )
    return year_losses, max_occurrence


def _gather(stack, ids: np.ndarray, take_rows) -> np.ndarray:
    """One take from a contiguous stack, else ``take_rows(rows, ids)``."""
    return np.take(stack, ids, axis=1) if isinstance(stack, np.ndarray) else take_rows(stack, ids)


def _occurrence_losses(gathered: np.ndarray, vectors: LayerTermsVectors) -> np.ndarray:
    """Occurrence terms; a read-only gather (a shared store block) is never written."""
    private = gathered.flags.writeable
    return apply_occurrence_terms_batch(gathered, vectors, out=gathered if private else None)


class _RowGroups:
    """Plan rows grouped by the unique gathered row they read (``row_map``).

    A stable ``argsort`` makes each group one contiguous run of rows, so the
    occurrence terms can write a group straight into a slice of one scratch
    and the per-trial totals come back in that grouped order (``unsort``).
    """

    def __init__(self, row_map: np.ndarray, vectors: LayerTermsVectors) -> None:
        self.row_map = row_map
        self.vectors = vectors
        self.order = np.argsort(row_map, kind="stable")
        ordered = row_map[self.order]
        starts = np.flatnonzero(np.diff(ordered, prepend=-1))
        bounds = np.append(starts, ordered.size).tolist()
        #: ``(unique row, start, stop)`` of every group, in grouped order.
        self.spans = list(zip(ordered[starts].tolist(), bounds, bounds[1:]))
        self.retentions = vectors.occurrence_retentions[self.order][:, None]
        self.limits = vectors.occurrence_limits[self.order][:, None]

    def occurrence_losses(self, gathered: np.ndarray) -> np.ndarray:
        """The termed ``(n_rows, n_events)`` scratch, in grouped row order:
        one subtract per unique row broadcast over its group, then one clip
        — never a ``gathered[row_map]`` expansion, and the gather itself
        (possibly a read-only store block) is only read."""
        scratch = np.empty((len(self.order), gathered.shape[1]), dtype=np.float64)
        for unique, start, stop in self.spans:
            np.subtract(gathered[unique], self.retentions[start:stop], out=scratch[start:stop])
        np.clip(scratch, 0.0, self.limits, out=scratch)
        return scratch

    def unsort(self, grouped: np.ndarray) -> np.ndarray:
        """Rows in grouped order -> rows in plan order."""
        rows = np.empty_like(grouped)
        rows[self.order] = grouped
        return rows

    def occurrence_maxima(self, maxima: np.ndarray) -> np.ndarray:
        """Per-trial maximum occurrence losses of every plan row from the
        ``(n_unique, n_trials)`` maxima of the *untermed* gather.

        The occurrence terms ``f`` are monotone, so ``f(max(x)) ==
        max(f(x))`` bit for bit (module docstring).
        """
        expanded = maxima[self.row_map]
        return apply_occurrence_terms_batch(expanded, self.vectors, out=expanded)


def _layer_trial_losses_batch_streamed(
    stack: np.ndarray | Sequence[np.ndarray],
    ids: np.ndarray,
    trial_offsets: np.ndarray,
    vectors: LayerTermsVectors,
    chunk_events: int,
    record_max_occurrence: bool,
    timer: PhaseTimer,
    row_map: np.ndarray | None = None,
) -> Tuple[np.ndarray, np.ndarray | None]:
    """Bounded-memory fused pass over trial-aligned event chunks.

    Each chunk is the longest run of *whole* trials whose events fit in
    ``chunk_events`` (always at least one trial, so an oversized trial is
    processed whole rather than split).  Because no trial straddles a chunk,
    every per-trial reduction happens entirely inside one chunk and the
    streamed result is bit-identical to the unchunked gather — the property
    that lets trial shards of the chunked backend merge exactly, regardless
    of where the shard (and hence the chunk grid) boundaries fall.
    """
    offsets = validate_offsets(np.asarray(trial_offsets), ids.shape[0])
    n_layers = vectors.n_layers
    n_trials = offsets.size - 1
    groups = None if row_map is None else _RowGroups(row_map, vectors)
    totals = np.zeros((n_layers, n_trials), dtype=np.float64)
    # With a row_map the maxima are taken per gathered row, before the terms.
    max_occurrence = (
        np.zeros((n_layers if groups is None else len(stack), n_trials), dtype=np.float64)
        if record_max_occurrence
        else None
    )

    t0 = 0
    while t0 < n_trials:
        # Furthest trial whose last event still fits in the chunk budget
        # (but at least one trial, to guarantee progress).
        t1 = int(np.searchsorted(offsets, offsets[t0] + chunk_events, side="right")) - 1
        t1 = min(max(t1, t0 + 1), n_trials)
        start, stop = int(offsets[t0]), int(offsets[t1])
        with timer.phase(PHASE_ELT_LOOKUP):
            gathered = _gather(stack, ids[start:stop], row_store.gather_rows)
        with timer.phase(PHASE_LAYER_TERMS):
            if groups is None:
                occurrence = _occurrence_losses(gathered, vectors)
            else:
                occurrence = groups.occurrence_losses(gathered)
            local = offsets[t0 : t1 + 1] - start
            totals[:, t0:t1] = segment_sum_2d(occurrence, local)
            if max_occurrence is not None:
                max_occurrence[:, t0:t1] = segment_max_2d(
                    occurrence if groups is None else gathered, local
                )
        t0 = t1

    with timer.phase(PHASE_LAYER_TERMS):
        if groups is not None:
            totals = groups.unsort(totals)
            if max_occurrence is not None:
                max_occurrence = groups.occurrence_maxima(max_occurrence)
        year_losses = clip_aggregate_totals(totals, vectors)
    return year_losses, max_occurrence


def layer_trial_losses_chunked(
    matrix: LayerLossMatrix,
    event_ids: np.ndarray,
    trial_offsets: np.ndarray,
    terms: LayerTerms,
    chunk_events: int,
    record_max_occurrence: bool = True,
    timer: PhaseTimer | None = None,
) -> Tuple[np.ndarray, np.ndarray | None]:
    """Chunked variant of :func:`layer_trial_losses`.

    The flattened event stream is processed in chunks of ``chunk_events``
    occurrences so that the ``(n_elts, chunk_events)`` gather buffer — the
    working set — stays bounded regardless of the YET size.  This is the CPU
    analogue of the optimised GPU kernel's shared-memory staging: the combined
    per-event losses are accumulated into a single 1-D array and the layer
    terms are applied once at the end.
    """
    if chunk_events <= 0:
        raise ValueError(f"chunk_events must be positive, got {chunk_events}")
    timer = timer if timer is not None else PhaseTimer(enabled=False)

    with timer.phase(PHASE_EVENT_FETCH):
        ids = np.ascontiguousarray(event_ids, dtype=np.int64)
    total = ids.shape[0]
    combined = np.empty(total, dtype=np.float64)

    for start in range(0, total, int(chunk_events)):
        stop = min(start + int(chunk_events), total)
        chunk_ids = ids[start:stop]
        with timer.phase(PHASE_ELT_LOOKUP):
            gathered = matrix.gather(chunk_ids)
        with timer.phase(PHASE_FINANCIAL_TERMS):
            net = apply_financial_terms_matrix(
                gathered, matrix.retentions, matrix.limits, matrix.shares, matrix.fx_rates
            )
            combined[start:stop] = sum_elt_rows(net)

    with timer.phase(PHASE_LAYER_TERMS):
        occurrence = apply_occurrence_terms(combined, terms)
        year_losses = aggregate_terms_shortcut(occurrence, trial_offsets, terms)
        max_occurrence = (
            segment_max(occurrence, trial_offsets) if record_max_occurrence else None
        )
    return year_losses, max_occurrence
