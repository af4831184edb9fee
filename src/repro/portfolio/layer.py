"""The Layer: a set of ELTs covered under common layer terms.

Section II-A: "Layers, denoted as L, cover a collection of ELTs under a set of
layer terms.  A single layer L_i is composed of two attributes.  Firstly, the
set of ELTs E = {ELT_1, ELT_2, ..., ELT_j}, and secondly, the Layer Terms
T = (T_OccR, T_OccL, T_AggR, T_AggL).  A typical layer covers approximately 3
to 30 individual ELTs."
"""

from __future__ import annotations

from typing import Sequence

from repro.elt.combined import LayerLossMatrix
from repro.elt.table import EventLossTable
from repro.financial.contracts import contract_kind
from repro.financial.terms import LayerTerms
from repro.utils.digest import Digested

__all__ = ["Layer"]


def terms_bytes(terms: LayerTerms) -> bytes:
    """The digest framing of one set of layer terms."""
    return repr((terms.occurrence_retention, terms.occurrence_limit,
                 terms.aggregate_retention, terms.aggregate_limit)).encode()


class Layer(Digested):
    """A reinsurance layer: ELT collection + layer terms.

    Parameters
    ----------
    elts:
        The Event Loss Tables the layer covers (all sharing one catalog size).
    terms:
        The layer terms ``T``.
    name:
        Human-readable contract name.
    premium:
        Optional annual premium (used by the pricing module's loss-ratio and
        rate-on-line calculations; 0 means "not yet priced").
    """

    def __init__(
        self,
        elts: Sequence[EventLossTable],
        terms: LayerTerms | None = None,
        name: str = "",
        premium: float = 0.0,
    ) -> None:
        if not elts:
            raise ValueError("a layer must cover at least one ELT")
        catalog_sizes = {elt.catalog_size for elt in elts}
        if len(catalog_sizes) != 1:
            raise ValueError("all ELTs of a layer must share one catalog size")
        if premium < 0:
            raise ValueError(f"premium must be non-negative, got {premium}")
        self._elts: tuple[EventLossTable, ...] = tuple(elts)
        self._terms = terms if terms is not None else LayerTerms()
        self._name = str(name)
        self.premium = float(premium)
        self._loss_matrix: LayerLossMatrix | None = None

    # Read-only: the layer stores its content digest on first read (derive a
    # changed layer with :meth:`with_terms`).
    elts = property(lambda self: self._elts, doc="The ELTs the layer covers.")
    terms = property(lambda self: self._terms, doc="The layer terms ``T``.")
    name = property(lambda self: self._name, doc="Human-readable contract name.")

    def _digest_parts(self) -> tuple:
        return (b"layer", self.name.encode(), terms_bytes(self.terms),
                *(elt.digest.encode() for elt in self.elts))

    # ------------------------------------------------------------------ #
    # Shape accessors
    # ------------------------------------------------------------------ #
    @property
    def n_elts(self) -> int:
        """Number of ELTs the layer covers (the paper's ``|ELT|`` per layer)."""
        return len(self.elts)

    @property
    def catalog_size(self) -> int:
        """Size of the event catalog the layer's ELTs refer to."""
        return self.elts[0].catalog_size

    @property
    def n_records(self) -> int:
        """Total number of non-zero event-loss records across the layer's ELTs."""
        return sum(elt.size for elt in self.elts)

    @property
    def contract_kind(self) -> str:
        """Contract family implied by the layer terms (Cat XL, Aggregate XL, ...)."""
        return contract_kind(self.terms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Layer(name={self.name!r}, n_elts={self.n_elts}, "
            f"kind={self.contract_kind!r}, terms=({self.terms.describe()}))"
        )

    # ------------------------------------------------------------------ #
    # Engine-facing helpers
    # ------------------------------------------------------------------ #
    def loss_matrix(self) -> LayerLossMatrix:
        """The layer's :class:`LayerLossMatrix` (made on first use and cached)."""
        if self._loss_matrix is None:
            self._loss_matrix = LayerLossMatrix(self.elts)
        return self._loss_matrix

    def with_terms(self, terms: LayerTerms, name: str | None = None) -> "Layer":
        """A copy of this layer under different layer terms.

        This is the primitive behind the real-time pricing scenario of
        Section IV: the underwriter re-evaluates the *same* exposure (same
        ELTs) under alternative contractual terms.  The loss matrix is always
        shared between the copies because it does not depend on the terms
        (making one allocates nothing until a row or the dense stack is read).
        """
        clone = Layer(self.elts, terms, name=self.name if name is None else name,
                      premium=self.premium)
        clone._loss_matrix = self.loss_matrix()
        return clone
