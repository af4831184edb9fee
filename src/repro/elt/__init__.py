"""Event Loss Table (ELT) data structures.

An ELT maps event ids to expected losses for one exposure set, together with
the per-ELT financial terms ``I``.  Section III-B of the paper discusses the
choice of lookup structure at length, because the aggregate analysis is
dominated (78 % of runtime, Fig. 6b) by random lookups into the ELTs.  The
engine uses the paper's choice, the **direct access table**: a dense array of
length ``catalog_size`` indexed by event id, one memory access per lookup,
very sparse (e.g. 20 K non-zero entries out of 2 M).  The sorted and hashed
alternatives the paper argues against live with the ablation benchmark that
compares them (``benchmarks/paper/lookup_structures.py``) and share the
:class:`~repro.elt.table.LossLookup` interface.

:class:`~repro.elt.combined.LayerLossMatrix` holds a layer's combined
term-netted row (what the fused kernels gather from) and, on demand, the dense
``n_elts x catalog_size`` stack for per-ELT lookups.
"""

from repro.elt.combined import LayerLossMatrix
from repro.elt.direct_access import DirectAccessTable
from repro.elt.stats import elt_statistics, ELTStatistics
from repro.elt.table import EventLossTable, LossLookup

__all__ = [
    "EventLossTable",
    "LossLookup",
    "DirectAccessTable",
    "LayerLossMatrix",
    "ELTStatistics",
    "elt_statistics",
]
