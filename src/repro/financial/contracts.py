"""Contract-type constructors for layer terms.

The paper (Section I) describes the common excess-of-loss contract families a
reinsurer's portfolio contains:

* **Cat XL / Per-Occurrence XL** — coverage of single event occurrences up to a
  limit, with an optional retention: only the occurrence terms are active.
* **Aggregate XL / Stop-Loss** — coverage of the annual cumulative loss up to an
  aggregate limit with an optional aggregate retention: only the aggregate
  terms are active.
* **Combined** contracts carrying both occurrence and aggregate features.
* **Quota share** — a proportional cession, represented here at the ELT level
  through the ``share`` component of the financial terms.

These helpers simply build the corresponding :class:`LayerTerms` values with
validation and descriptive names, so that examples and tests read like the
underwriting they model.
"""

from __future__ import annotations

from repro.financial.terms import LayerTerms
from repro.utils.validation import ensure_non_negative, ensure_positive

__all__ = [
    "occurrence_xl_terms",
    "aggregate_xl_terms",
    "combined_xl_terms",
    "contract_kind",
]


def occurrence_xl_terms(retention: float, limit: float) -> LayerTerms:
    """Layer terms of a Cat XL / Per-Occurrence XL contract.

    ``limit`` is the occurrence limit in excess of ``retention`` (i.e. a
    "``limit`` xs ``retention``" layer in market shorthand).
    """
    ensure_non_negative(retention, "retention")
    ensure_positive(limit, "limit", allow_inf=True)
    return LayerTerms(
        occurrence_retention=retention,
        occurrence_limit=limit,
        aggregate_retention=0.0,
        aggregate_limit=float("inf"),
    )


def aggregate_xl_terms(retention: float, limit: float) -> LayerTerms:
    """Layer terms of an Aggregate XL / Stop-Loss contract."""
    ensure_non_negative(retention, "retention")
    ensure_positive(limit, "limit", allow_inf=True)
    return LayerTerms(
        occurrence_retention=0.0,
        occurrence_limit=float("inf"),
        aggregate_retention=retention,
        aggregate_limit=limit,
    )


def combined_xl_terms(
    occurrence_retention: float,
    occurrence_limit: float,
    aggregate_retention: float,
    aggregate_limit: float,
) -> LayerTerms:
    """Layer terms combining per-occurrence and aggregate features."""
    ensure_non_negative(occurrence_retention, "occurrence_retention")
    ensure_positive(occurrence_limit, "occurrence_limit", allow_inf=True)
    ensure_non_negative(aggregate_retention, "aggregate_retention")
    ensure_positive(aggregate_limit, "aggregate_limit", allow_inf=True)
    return LayerTerms(
        occurrence_retention=occurrence_retention,
        occurrence_limit=occurrence_limit,
        aggregate_retention=aggregate_retention,
        aggregate_limit=aggregate_limit,
    )


def contract_kind(terms: LayerTerms) -> str:
    """Classify layer terms into the contract families of Section I.

    Returns one of ``"pass-through"``, ``"per-occurrence XL"``,
    ``"aggregate XL"`` or ``"combined XL"``.
    """
    has_occ = terms.has_occurrence_terms
    has_agg = terms.has_aggregate_terms
    if has_occ and has_agg:
        return "combined XL"
    if has_occ:
        return "per-occurrence XL"
    if has_agg:
        return "aggregate XL"
    return "pass-through"
