"""Event Loss Table (ELT) data structures.

An ELT maps event ids to expected losses for one exposure set, together with
the per-ELT financial terms ``I``.  Section III-B of the paper discusses the
choice of lookup structure at length, because the aggregate analysis is
dominated (78 % of runtime, Fig. 6b) by random lookups into the ELTs:

* **direct access table** — a dense array of length ``catalog_size`` indexed by
  event id: one memory access per lookup, very sparse (e.g. 20 K non-zero
  entries out of 2 M), the paper's choice;
* **sorted table** — event ids kept sorted, binary search per lookup
  (``O(log n)`` accesses);
* **hashed table** — hash map with (amortised) constant-time lookups but
  pointer-chasing access patterns.

All three are implemented here with a common interface so the ablation
benchmark can compare them, plus :class:`~repro.elt.combined.LayerLossMatrix`:
a layer's combined term-netted row (what the fused kernels gather from) and,
on demand, the dense ``n_elts x catalog_size`` stack for per-ELT lookups.
"""

from repro.elt.combined import LayerLossMatrix
from repro.elt.direct_access import DirectAccessTable
from repro.elt.hashed_table import HashedEventLossTable
from repro.elt.sorted_table import SortedEventLossTable
from repro.elt.stats import elt_statistics, ELTStatistics
from repro.elt.table import EventLossTable, LossLookup

__all__ = [
    "EventLossTable",
    "LossLookup",
    "DirectAccessTable",
    "SortedEventLossTable",
    "HashedEventLossTable",
    "LayerLossMatrix",
    "ELTStatistics",
    "elt_statistics",
]
