"""Phase names of the aggregate analysis.

Figure 6b of the paper breaks the engine's runtime into four phases; the same
names are used by every backend's instrumentation so that breakdowns are
directly comparable:

* ``event_fetch`` — reading the trial's event ids (and timestamps) from the
  Year Event Table;
* ``elt_lookup`` — random lookups of each event's loss in the layer's ELT
  direct access tables (the paper measures 78 % of runtime here);
* ``financial_terms`` — applying the per-ELT financial terms ``I`` and
  combining losses across ELTs;
* ``layer_terms`` — applying the occurrence and aggregate layer terms ``T``
  and accumulating the trial loss.
"""

from __future__ import annotations

__all__ = [
    "PHASE_EVENT_FETCH",
    "PHASE_ELT_LOOKUP",
    "PHASE_FINANCIAL_TERMS",
    "PHASE_LAYER_TERMS",
    "ALL_PHASES",
]

PHASE_EVENT_FETCH = "event_fetch"
PHASE_ELT_LOOKUP = "elt_lookup"
PHASE_FINANCIAL_TERMS = "financial_terms"
PHASE_LAYER_TERMS = "layer_terms"

#: All phase names in the order Figure 6b reports them.
ALL_PHASES: tuple[str, ...] = (
    PHASE_EVENT_FETCH,
    PHASE_ELT_LOOKUP,
    PHASE_FINANCIAL_TERMS,
    PHASE_LAYER_TERMS,
)
