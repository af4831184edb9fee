"""The Event Loss Table record container and lookup interface.

``EventLossTable`` is the canonical, storage-agnostic representation: parallel
arrays of event ids and expected losses plus the ELT-level financial terms.
Lookup structures (the engine's direct access table, and the sorted / hashed
ablation tables in ``benchmarks/paper``) are built *from* an
``EventLossTable`` and expose the :class:`LossLookup` interface used by the
engine backends.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Tuple

import numpy as np

from repro.utils.arrays import as_float_array, as_int_array, read_only
from repro.utils.digest import Digested

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.financial.terms import FinancialTerms

__all__ = ["EventLossTable", "LossLookup"]


class LossLookup(abc.ABC):
    """Interface of an event-id -> loss lookup structure."""

    @property
    @abc.abstractmethod
    def catalog_size(self) -> int:
        """Number of event ids addressable by the lookup (catalog size)."""

    @abc.abstractmethod
    def lookup(self, event_id: int) -> float:
        """Expected loss for a single event id (0.0 if the event is not in the ELT)."""

    @abc.abstractmethod
    def lookup_many(self, event_ids: np.ndarray) -> np.ndarray:
        """Vectorised lookup for an array of event ids."""

    @property
    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Approximate memory footprint of the structure in bytes."""


class EventLossTable(Digested):
    """Canonical ELT: sparse (event id, expected loss) pairs plus terms.

    Parameters
    ----------
    event_ids:
        Event identifiers with non-zero expected loss (need not be sorted;
        duplicates are rejected).
    losses:
        Expected loss per event id (same length as ``event_ids``).
    catalog_size:
        Size of the event catalog the ids refer to; ids must be < this value.
    terms:
        Per-ELT financial terms ``I`` (retention, limit, share, currency).
        ``None`` means pass-through terms.
    name:
        Optional human-readable name (e.g. the cedant / exposure-set name).

    The digested attributes (records, catalog size, terms) are read-only, so
    the stored :attr:`digest` can never go stale; ``name`` is not digested.
    """

    _read_only_state = ("_event_ids", "_losses")

    def __init__(
        self,
        event_ids: np.ndarray | Iterable[int],
        losses: np.ndarray | Iterable[float],
        catalog_size: int,
        terms: "FinancialTerms | None" = None,
        name: str = "",
    ) -> None:
        self._event_ids = read_only(as_int_array(np.asarray(list(event_ids) if not isinstance(event_ids, np.ndarray) else event_ids), "event_ids"))
        self._losses = read_only(as_float_array(np.asarray(list(losses) if not isinstance(losses, np.ndarray) else losses), "losses"))
        if self.event_ids.shape[0] != self.losses.shape[0]:
            raise ValueError(
                f"event_ids and losses must have equal length, got "
                f"{self.event_ids.shape[0]} and {self.losses.shape[0]}"
            )
        if catalog_size <= 0:
            raise ValueError(f"catalog_size must be positive, got {catalog_size}")
        self._catalog_size = int(catalog_size)
        if self.event_ids.size:
            if self.event_ids.min() < 0 or self.event_ids.max() >= self.catalog_size:
                raise ValueError("event ids must lie in [0, catalog_size)")
            unique = np.unique(self.event_ids)
            if unique.size != self.event_ids.size:
                raise ValueError("event ids must be unique within an ELT")
        if np.any(self.losses < 0):
            raise ValueError("losses must be non-negative")
        if np.any(~np.isfinite(self.losses)):
            raise ValueError("losses must be finite")
        if terms is None:
            from repro.financial.terms import FinancialTerms  # local import, avoids cycle

            terms = FinancialTerms()
        self._terms = terms
        self.name = str(name)

    event_ids = property(lambda self: self._event_ids, doc="Event ids (read-only view).")
    losses = property(lambda self: self._losses, doc="Expected losses (read-only view).")
    catalog_size = property(lambda self: self._catalog_size, doc="Catalog size.")
    terms = property(lambda self: self._terms, doc="The ELT financial terms ``I``.")

    def _digest_parts(self) -> tuple:
        t = self.terms
        return (b"elt", repr(self.catalog_size).encode(), self.event_ids, self.losses,
                repr((t.retention, t.limit, t.share, t.fx_rate)).encode())

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of (event, loss) records in the ELT."""
        return int(self.event_ids.shape[0])

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        for i in range(self.size):
            yield int(self.event_ids[i]), float(self.losses[i])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EventLossTable(name={self.name!r}, size={self.size}, "
            f"catalog_size={self.catalog_size})"
        )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def density(self) -> float:
        """Fraction of catalog events with a non-zero loss in this ELT."""
        return self.size / self.catalog_size

    def dense_losses(self) -> np.ndarray:
        """Dense loss vector of length ``catalog_size`` (the direct access layout)."""
        dense = np.zeros(self.catalog_size, dtype=np.float64)
        dense[self.event_ids] = self.losses
        return dense

    @classmethod
    def from_dict(
        cls,
        losses_by_event: Mapping[int, float],
        catalog_size: int,
        terms: "FinancialTerms | None" = None,
        name: str = "",
    ) -> "EventLossTable":
        """Build an ELT from a {event_id: loss} mapping, dropping zero losses."""
        items = [(int(e), float(l)) for e, l in losses_by_event.items() if l != 0.0]
        items.sort()
        if items:
            ids, losses = zip(*items)
        else:
            ids, losses = (), ()
        return cls(
            np.array(ids, dtype=np.int64),
            np.array(losses, dtype=np.float64),
            catalog_size,
            terms,
            name,
        )
