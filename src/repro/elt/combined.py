"""Layer-level combined ELT storage.

A layer's ELTs are read in two forms:

* the **combined term-netted row** — one ``(catalog_size,)`` vector of
  per-event losses net of each ELT's financial terms ``I``, summed over the
  layer's ELTs; what the fused kernels gather from.  It is built from the
  ELT *records* (:func:`scatter_net_losses`) at ``O(records)`` cost;
* the **dense stack** — the paper's "if a layer has 15 ELTs, then 15 x 2
  million = 30 million event-loss pairs are generated in memory": an
  ``(n_elts, catalog_size)`` float64 matrix of direct access tables.  This
  is the *per-ELT lookup* representation, built on first use by the readers
  of individual ELTs (``gather`` / ``row``: the ``fused_layers=False``
  ablation and the Fig. 6b phase probes).

The records-first row has the bytes of netting the dense stack and summing
it over the ELT axis: a zero cell nets to exactly ``+0.0`` under validated
terms (``fx_rate > 0``, ``retention >= 0``, ``limit >= 0``, ``share >= 0``),
which changes no partial sum, and :func:`sum_elt_rows` adds whole rows in
ELT order starting from ``0.0`` — the order the scatter adds in.  (An
axis-0 ``sum`` would not do: when a window holds one event the ELT axis is
the contiguous one, and NumPy sums that pairwise from 8 ELTs up.)
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.elt.table import EventLossTable
from repro.financial.policies import apply_financial_terms
from repro.financial.terms import FinancialTerms

__all__ = ["LayerLossMatrix", "scatter_net_losses", "sum_elt_rows"]


def scatter_net_losses(
    records: Iterable[Tuple[np.ndarray, np.ndarray, FinancialTerms]], out: np.ndarray
) -> np.ndarray:
    """Add each ELT's term-netted records into the zeroed catalog row ``out``.

    ``records`` yields one ``(event_ids, losses, terms)`` triple per ELT, in
    ELT order, ids unique within a triple.  The one place this loop lives;
    the module docstring says why it equals the dense reduction bit for bit.
    """
    for event_ids, losses, terms in records:
        out[event_ids] += apply_financial_terms(losses, terms)
    return out


def sum_elt_rows(matrix: np.ndarray) -> np.ndarray:
    """Sum ``(n_elts, n)`` over ELTs left to right from ``0.0`` (the scatter order)."""
    total = np.zeros(matrix.shape[1], dtype=np.float64)
    for row in matrix:
        total += row
    return total


class LayerLossMatrix:
    """A layer's ELTs as a combined net row and an on-demand dense stack.

    Construction validates the ELT set and extracts the per-ELT term vectors;
    it allocates nothing of catalog size.

    Parameters
    ----------
    elts:
        The Event Loss Tables covered by a layer (3–30 in practice).

    Attributes
    ----------
    losses:
        ``(n_elts, catalog_size)`` dense float64 matrix of expected losses,
        built on first access and cached.
    retentions, limits, shares, fx_rates:
        Per-ELT financial-term vectors of length ``n_elts`` (the components of
        ``I`` applied to each event loss extracted from the corresponding ELT).
    """

    def __init__(self, elts: Sequence[EventLossTable]) -> None:
        if not elts:
            raise ValueError("a layer must cover at least one ELT")
        catalog_sizes = {elt.catalog_size for elt in elts}
        if len(catalog_sizes) != 1:
            raise ValueError(
                f"all ELTs of a layer must share one catalog size, got {sorted(catalog_sizes)}"
            )
        self.catalog_size = catalog_sizes.pop()
        self.n_elts = len(elts)
        self.names = tuple(elt.name for elt in elts)
        self._elts = tuple(elts)

        self.retentions = np.array([elt.terms.retention for elt in elts], dtype=np.float64)
        self.limits = np.array([elt.terms.limit for elt in elts], dtype=np.float64)
        self.shares = np.array([elt.terms.share for elt in elts], dtype=np.float64)
        self.fx_rates = np.array([elt.terms.fx_rate for elt in elts], dtype=np.float64)
        self._n_records = int(sum(elt.size for elt in elts))
        self._losses: np.ndarray | None = None
        self._combined_net: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def n_records(self) -> int:
        """Total number of non-zero (event, loss) records across the ELTs."""
        return self._n_records

    @property
    def losses(self) -> np.ndarray:
        """The dense ``(n_elts, catalog_size)`` stack (built lazily and cached)."""
        if self._losses is None:
            dense = np.zeros((self.n_elts, self.catalog_size), dtype=np.float64)
            for row, elt in enumerate(self._elts):
                dense[row, elt.event_ids] = elt.losses
            self._losses = dense
        return self._losses

    @property
    def memory_bytes(self) -> int:
        """Bytes resident now: the term vectors plus whichever of the
        combined row and the dense stack have been built."""
        arrays = (self.retentions, self.limits, self.shares, self.fx_rates,
                  self._combined_net, self._losses)
        return int(sum(array.nbytes for array in arrays if array is not None))

    def gather(self, event_ids: np.ndarray) -> np.ndarray:
        """Gather the losses of ``event_ids`` from every ELT.

        Returns an ``(n_elts, len(event_ids))`` matrix — the vectorised
        equivalent of the basic algorithm's lines 3–5 (per-event ELT lookups).
        It is C-contiguous (``np.take``; ``losses[:, event_ids]`` would be
        event-major), so every later pass streams; the per-layer path nets
        it and reduces it with :func:`sum_elt_rows`, in ELT order.
        """
        ids = np.asarray(event_ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.catalog_size):
            raise IndexError("event ids out of range of the catalog")
        return np.take(self.losses, ids, axis=1)

    def combined_net_losses(self) -> np.ndarray:
        """Per-catalog-entry losses net of financial terms, combined across ELTs.

        Because the per-ELT financial terms ``I`` depend only on the loss
        value (never on the trial), they are applied *once* per ELT record
        instead of to every gathered occurrence; the resulting
        ``(catalog_size,)`` vector is what the fused multi-layer kernel
        gathers from.  Built lazily from the records, never from the dense
        stack, and cached (read-only array returned).
        """
        if self._combined_net is None:
            net = scatter_net_losses(
                ((elt.event_ids, elt.losses, elt.terms) for elt in self._elts),
                np.zeros(self.catalog_size, dtype=np.float64),
            )
            net.flags.writeable = False
            self._combined_net = net
        return self._combined_net

    def row(self, index: int) -> np.ndarray:
        """Dense loss vector of the ``index``-th ELT (read-only view)."""
        view = self.losses[index].view()
        view.flags.writeable = False
        return view

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LayerLossMatrix(n_elts={self.n_elts}, catalog_size={self.catalog_size}, "
            f"records={self._n_records}, resident={self.memory_bytes / 1e6:.1f} MB)"
        )
