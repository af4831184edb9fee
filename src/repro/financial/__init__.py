"""Financial and contractual terms substrate.

Two levels of terms appear in the aggregate analysis (Section II of the
paper):

* **ELT financial terms** ``I`` — applied to each event loss extracted from a
  single ELT before losses are combined across the layer's ELTs (currency
  conversion, per-event retention/limit and the ceding share);
* **Layer terms** ``T = (T_OccR, T_OccL, T_AggR, T_AggL)`` — applied to the
  combined per-occurrence losses (occurrence retention/limit, Cat XL /
  Per-Occurrence XL semantics) and to the trial's cumulative loss (aggregate
  retention/limit, Aggregate XL / Stop-Loss semantics), see Table I.

The vectorised kernels that apply these terms to whole arrays of losses live
in :mod:`repro.financial.policies`; contract-type convenience constructors
(Cat XL, Aggregate XL, combined) are in :mod:`repro.financial.contracts`.
"""

from repro.financial.contracts import (
    aggregate_xl_terms,
    combined_xl_terms,
    occurrence_xl_terms,
)
from repro.financial.currency import Currency, CurrencyConverter
from repro.financial.policies import (
    aggregate_terms_shortcut_batch,
    apply_aggregate_terms_cumulative,
    apply_financial_terms,
    apply_occurrence_terms,
    apply_occurrence_terms_batch,
)
from repro.financial.terms import FinancialTerms, LayerTerms, LayerTermsVectors

__all__ = [
    "FinancialTerms",
    "LayerTerms",
    "LayerTermsVectors",
    "Currency",
    "CurrencyConverter",
    "apply_financial_terms",
    "apply_occurrence_terms",
    "apply_occurrence_terms_batch",
    "apply_aggregate_terms_cumulative",
    "aggregate_terms_shortcut_batch",
    "occurrence_xl_terms",
    "aggregate_xl_terms",
    "combined_xl_terms",
]
