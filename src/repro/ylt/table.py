"""The Year Loss Table container.

A :class:`YearLossTable` stores, for each layer of a program, the loss of
every simulated trial (year).  The engine additionally records each trial's
largest single occurrence loss when asked, which is what the occurrence
exceedance-probability (OEP) curve is computed from.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["YearLossTable"]


class YearLossTable:
    """Per-layer, per-trial year losses.

    Parameters
    ----------
    losses:
        ``(n_layers, n_trials)`` array of year (aggregate) losses net of all
        terms — the paper's ``lr`` per trial, one row per layer.
    layer_names:
        Names of the layers (row labels); defaults to ``layer_0..layer_{n-1}``.
    max_occurrence_losses:
        Optional ``(n_layers, n_trials)`` array of each trial's largest single
        occurrence loss net of occurrence terms (for OEP curves).
    """

    def __init__(
        self,
        losses: np.ndarray,
        layer_names: Sequence[str] | None = None,
        max_occurrence_losses: np.ndarray | None = None,
    ) -> None:
        array = np.ascontiguousarray(losses, dtype=np.float64)
        if array.ndim == 1:
            array = array.reshape(1, -1)
        if array.ndim != 2:
            raise ValueError(f"losses must be 1-D or 2-D, got shape {array.shape}")
        if np.any(array < 0):
            raise ValueError("year losses must be non-negative")
        if np.any(~np.isfinite(array)):
            raise ValueError("year losses must be finite")
        self.losses = array

        if layer_names is None:
            layer_names = [f"layer_{i}" for i in range(self.n_layers)]
        if len(layer_names) != self.n_layers:
            raise ValueError(
                f"expected {self.n_layers} layer names, got {len(layer_names)}"
            )
        self.layer_names: tuple[str, ...] = tuple(str(n) for n in layer_names)

        if max_occurrence_losses is not None:
            occ = np.ascontiguousarray(max_occurrence_losses, dtype=np.float64)
            if occ.ndim == 1:
                occ = occ.reshape(1, -1)
            if occ.shape != self.losses.shape:
                raise ValueError(
                    f"max_occurrence_losses shape {occ.shape} does not match "
                    f"losses shape {self.losses.shape}"
                )
            self.max_occurrence_losses = occ
        else:
            self.max_occurrence_losses = None

    # ------------------------------------------------------------------ #
    # Shape accessors
    # ------------------------------------------------------------------ #
    @property
    def n_layers(self) -> int:
        """Number of layers (rows)."""
        return int(self.losses.shape[0])

    @property
    def n_trials(self) -> int:
        """Number of trials (columns)."""
        return int(self.losses.shape[1])

    def __len__(self) -> int:
        return self.n_trials

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"YearLossTable(n_layers={self.n_layers}, n_trials={self.n_trials})"

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def layer(self, index_or_name: int | str) -> np.ndarray:
        """Year losses of one layer (by row index or name)."""
        index = self._resolve(index_or_name)
        return self.losses[index]

    def _resolve(self, index_or_name: int | str) -> int:
        if isinstance(index_or_name, str):
            try:
                return self.layer_names.index(index_or_name)
            except ValueError as exc:
                raise KeyError(f"no layer named {index_or_name!r}") from exc
        index = int(index_or_name)
        if not 0 <= index < self.n_layers:
            raise IndexError(f"layer index {index} out of range [0, {self.n_layers})")
        return index

    def _row_span(self, start: int, stop: int) -> "YearLossTable":
        """Rows ``start:stop`` as a table of views into this one's arrays.

        The rows were validated when this table was built, so none of
        ``__init__``'s scans run again; a view of a read-only block stays
        read-only.
        """
        table = object.__new__(YearLossTable)
        table.losses = self.losses[start:stop]
        table.layer_names = self.layer_names[start:stop]
        occ = self.max_occurrence_losses
        table.max_occurrence_losses = None if occ is None else occ[start:stop]
        return table

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def portfolio_losses(self) -> np.ndarray:
        """Per-trial portfolio loss: the sum of all layers' year losses."""
        return self.losses.sum(axis=0)

    def portfolio_max_occurrence(self) -> np.ndarray:
        """Per-trial portfolio-level maximum occurrence loss (if recorded).

        Note: this sums the layers' maxima, which is an upper bound on the
        true portfolio occurrence maximum (the layers' worst occurrences may
        be different events); it is the standard conservative roll-up.
        """
        if self.max_occurrence_losses is None:
            raise ValueError("this YLT does not record per-trial maximum occurrence losses")
        return self.max_occurrence_losses.sum(axis=0)

    def merged_with(self, other: "YearLossTable") -> "YearLossTable":
        """Stack another YLT's layers below this one (same trial count required)."""
        if other.n_trials != self.n_trials:
            raise ValueError(
                f"cannot merge YLTs with different trial counts "
                f"({self.n_trials} vs {other.n_trials})"
            )
        losses = np.vstack([self.losses, other.losses])
        names = self.layer_names + other.layer_names
        occ = None
        if self.max_occurrence_losses is not None and other.max_occurrence_losses is not None:
            occ = np.vstack([self.max_occurrence_losses, other.max_occurrence_losses])
        return YearLossTable(losses, names, occ)
