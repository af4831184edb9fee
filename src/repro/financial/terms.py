"""Financial term definitions.

Table I of the paper defines the four layer terms:

=========  =====================  ==========================================================
Notation   Term                   Description
=========  =====================  ==========================================================
T_OccR     Occurrence Retention   Retention/deductible of the insured for an individual
                                  occurrence loss
T_OccL     Occurrence Limit       Limit the insurer will pay for occurrence losses in excess
                                  of the retention
T_AggR     Aggregate Retention    Retention/deductible of the insured for an annual
                                  cumulative loss
T_AggL     Aggregate Limit        Limit the insurer will pay for annual cumulative losses in
                                  excess of the aggregate retention
=========  =====================  ==========================================================

The per-ELT financial terms ``I`` are less standardised in the paper ("each
ELT is characterised by its own metadata including information about currency
exchange rates and terms that are applied at the level of each individual
event loss"); we model them as an event-level retention/limit pair, a ceding
share (participation) and a currency conversion rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.utils.validation import ensure_in_range, ensure_non_negative

__all__ = ["FinancialTerms", "LayerTerms", "LayerTermsVectors"]


@dataclass(frozen=True)
class FinancialTerms:
    """Per-ELT financial terms ``I`` applied to each individual event loss.

    The net loss of an event with ground-up loss ``x`` is::

        share * min(max(x * fx_rate - retention, 0), limit)

    Attributes
    ----------
    retention:
        Event-level deductible retained by the cedant.
    limit:
        Event-level limit of recoverable loss (``inf`` = unlimited).
    share:
        Ceding share / participation in ``[0, 1]``.
    fx_rate:
        Currency conversion rate applied to the ELT's losses before any other
        term (1.0 = losses already in the analysis currency).
    """

    retention: float = 0.0
    limit: float = float("inf")
    share: float = 1.0
    fx_rate: float = 1.0

    def __post_init__(self) -> None:
        ensure_non_negative(self.retention, "retention")
        ensure_non_negative(self.limit, "limit", allow_inf=True)
        ensure_in_range(self.share, 0.0, 1.0, "share")
        if self.fx_rate <= 0:
            raise ValueError(f"fx_rate must be positive, got {self.fx_rate}")

    def apply(self, ground_up_loss: float) -> float:
        """Net loss of one event after applying these terms."""
        loss = ensure_non_negative(ground_up_loss, "ground_up_loss") * self.fx_rate
        return self.share * min(max(loss - self.retention, 0.0), self.limit)


@dataclass(frozen=True)
class LayerTerms:
    """Layer terms ``T = (T_OccR, T_OccL, T_AggR, T_AggL)`` (Table I).

    Attributes
    ----------
    occurrence_retention:
        ``T_OccR`` — retention applied to each individual occurrence loss.
    occurrence_limit:
        ``T_OccL`` — limit on each occurrence loss in excess of the retention.
    aggregate_retention:
        ``T_AggR`` — retention applied to the trial's cumulative loss.
    aggregate_limit:
        ``T_AggL`` — limit on the cumulative loss in excess of the aggregate
        retention.
    """

    occurrence_retention: float = 0.0
    occurrence_limit: float = float("inf")
    aggregate_retention: float = 0.0
    aggregate_limit: float = float("inf")

    def __post_init__(self) -> None:
        ensure_non_negative(self.occurrence_retention, "occurrence_retention")
        ensure_non_negative(self.occurrence_limit, "occurrence_limit", allow_inf=True)
        ensure_non_negative(self.aggregate_retention, "aggregate_retention")
        ensure_non_negative(self.aggregate_limit, "aggregate_limit", allow_inf=True)

    @property
    def has_occurrence_terms(self) -> bool:
        """True when non-trivial per-occurrence terms are present."""
        return self.occurrence_retention != 0.0 or self.occurrence_limit != float("inf")

    @property
    def has_aggregate_terms(self) -> bool:
        """True when non-trivial aggregate (stop-loss) terms are present."""
        return self.aggregate_retention != 0.0 or self.aggregate_limit != float("inf")

    def apply_occurrence(self, occurrence_loss: float) -> float:
        """Occurrence loss net of ``T_OccR``/``T_OccL`` (line 11 of the algorithm)."""
        loss = ensure_non_negative(occurrence_loss, "occurrence_loss")
        return min(max(loss - self.occurrence_retention, 0.0), self.occurrence_limit)

    def apply_aggregate(self, cumulative_loss: float) -> float:
        """Cumulative loss net of ``T_AggR``/``T_AggL`` (line 15 of the algorithm)."""
        loss = ensure_non_negative(cumulative_loss, "cumulative_loss")
        return min(max(loss - self.aggregate_retention, 0.0), self.aggregate_limit)

    def describe(self) -> str:
        """Human-readable description, mirroring Table I's notation."""
        def fmt(value: float) -> str:
            return "unlimited" if value == float("inf") else f"{value:,.0f}"

        return (
            f"T_OccR={fmt(self.occurrence_retention)}, T_OccL={fmt(self.occurrence_limit)}, "
            f"T_AggR={fmt(self.aggregate_retention)}, T_AggL={fmt(self.aggregate_limit)}"
        )


class LayerTermsVectors:
    """Structure-of-arrays form of many layers' :class:`LayerTerms`.

    The fused multi-layer kernel applies the occurrence and aggregate terms of
    every layer as one broadcast expression over an ``(n_layers, n_events)``
    loss matrix; this container holds the four term vectors (each of length
    ``n_layers``) those expressions broadcast against.
    """

    __slots__ = (
        "occurrence_retentions",
        "occurrence_limits",
        "aggregate_retentions",
        "aggregate_limits",
    )

    def __init__(
        self,
        occurrence_retentions: np.ndarray,
        occurrence_limits: np.ndarray,
        aggregate_retentions: np.ndarray,
        aggregate_limits: np.ndarray,
    ) -> None:
        vectors = [
            np.ascontiguousarray(v, dtype=np.float64)
            for v in (
                occurrence_retentions,
                occurrence_limits,
                aggregate_retentions,
                aggregate_limits,
            )
        ]
        lengths = {v.shape for v in vectors}
        if len(lengths) != 1 or vectors[0].ndim != 1:
            raise ValueError(
                f"term vectors must be 1-D and equally long, got shapes {sorted(lengths)}"
            )
        for name, values, allow_inf in (
            ("occurrence_retentions", vectors[0], False),
            ("occurrence_limits", vectors[1], True),
            ("aggregate_retentions", vectors[2], False),
            ("aggregate_limits", vectors[3], True),
        ):
            # Same contract LayerTerms enforces per scalar: non-negative (and
            # NaN-free); only the limits may be infinite.
            if values.size and not np.all(values >= 0.0):
                raise ValueError(f"{name} must be non-negative")
            if not allow_inf and values.size and not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
        self.occurrence_retentions = vectors[0]
        self.occurrence_limits = vectors[1]
        self.aggregate_retentions = vectors[2]
        self.aggregate_limits = vectors[3]

    @classmethod
    def from_terms(cls, terms: Sequence[LayerTerms]) -> "LayerTermsVectors":
        """Stack a sequence of per-layer terms into term vectors."""
        return cls(
            np.array([t.occurrence_retention for t in terms], dtype=np.float64),
            np.array([t.occurrence_limit for t in terms], dtype=np.float64),
            np.array([t.aggregate_retention for t in terms], dtype=np.float64),
            np.array([t.aggregate_limit for t in terms], dtype=np.float64),
        )

    @property
    def n_layers(self) -> int:
        """Number of layers the vectors describe."""
        return int(self.occurrence_retentions.shape[0])

    def __len__(self) -> int:
        return self.n_layers

    def __iter__(self) -> Iterator[LayerTerms]:
        for i in range(self.n_layers):
            yield self[i]

    def __getitem__(self, index: int) -> LayerTerms:
        return LayerTerms(
            occurrence_retention=float(self.occurrence_retentions[index]),
            occurrence_limit=float(self.occurrence_limits[index]),
            aggregate_retention=float(self.aggregate_retentions[index]),
            aggregate_limit=float(self.aggregate_limits[index]),
        )

    def tile(self, repetitions: int) -> "LayerTermsVectors":
        """Term vectors of ``repetitions`` copies of the layers, concatenated.

        The replication-batched uncertainty engine stacks ``R`` sampled
        realisations of an ``n_layers`` program into one fused
        ``(R * n_layers, catalog_size)`` loss stack; this produces the
        matching term vectors (replication-major, i.e. the layer block is
        repeated ``R`` times).
        """
        if repetitions <= 0:
            raise ValueError(f"repetitions must be positive, got {repetitions}")
        return LayerTermsVectors(
            np.tile(self.occurrence_retentions, repetitions),
            np.tile(self.occurrence_limits, repetitions),
            np.tile(self.aggregate_retentions, repetitions),
            np.tile(self.aggregate_limits, repetitions),
        )

    def take(self, indices: Sequence[int] | np.ndarray) -> "LayerTermsVectors":
        """Term vectors of a subset (or permutation) of the layers."""
        idx = np.asarray(indices, dtype=np.int64)
        return LayerTermsVectors(
            self.occurrence_retentions[idx],
            self.occurrence_limits[idx],
            self.aggregate_retentions[idx],
            self.aggregate_limits[idx],
        )
