"""Reinsurance program: an ordered collection of layers.

The program is the portfolio-level input to the aggregate analysis (the
outermost loop of the basic algorithm — "for all a in L").  It also carries
the bookkeeping a portfolio roll-up needs: looking layers up by name, grouping
them by cedant or contract kind, and summing premiums.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Sequence

from repro.portfolio.layer import Layer
from repro.utils.digest import Digested

__all__ = ["ReinsuranceProgram"]


class ReinsuranceProgram(Digested):
    """An ordered, named collection of :class:`~repro.portfolio.layer.Layer`."""

    def __init__(self, layers: Sequence[Layer], name: str = "program") -> None:
        if not layers:
            raise ValueError("a program must contain at least one layer")
        catalog_sizes = {layer.catalog_size for layer in layers}
        if len(catalog_sizes) != 1:
            raise ValueError(
                "all layers of a program must reference the same catalog size, "
                f"got {sorted(catalog_sizes)}"
            )
        self._layers: tuple[Layer, ...] = tuple(layers)
        self._name = str(name)

    # Read-only: the program stores its content digest on first read.
    layers = property(lambda self: self._layers, doc="The layers, in program order.")
    name = property(lambda self: self._name, doc="Program name.")

    def _digest_parts(self) -> tuple:
        return (b"program", self.name.encode(),
                *(layer.digest.encode() for layer in self.layers))

    @classmethod
    def wrap(cls, program_or_layer: "ReinsuranceProgram | Layer") -> "ReinsuranceProgram":
        """Coerce a bare :class:`Layer` into a single-layer program.

        Programs pass through unchanged.  This is the one place the
        layer-as-program convenience (accepted by the engine facade and the
        batch pricing path) is defined.
        """
        if isinstance(program_or_layer, Layer):
            return cls(
                [program_or_layer], name=program_or_layer.name or "single-layer"
            )
        return program_or_layer

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    @property
    def n_layers(self) -> int:
        """Number of layers (the paper's ``|L|`` parameter)."""
        return len(self.layers)

    @property
    def catalog_size(self) -> int:
        """Catalog size shared by all layers."""
        return self.layers[0].catalog_size

    def __len__(self) -> int:
        return self.n_layers

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __getitem__(self, index: int) -> Layer:
        return self.layers[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReinsuranceProgram(name={self.name!r}, n_layers={self.n_layers})"

    # ------------------------------------------------------------------ #
    # Shape / bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def layer_names(self) -> tuple[str, ...]:
        """Names of the layers, in program order."""
        return tuple(layer.name for layer in self.layers)

    @property
    def mean_elts_per_layer(self) -> float:
        """Average number of ELTs per layer (the paper's ``|ELT|_av``)."""
        return sum(layer.n_elts for layer in self.layers) / self.n_layers

    @property
    def total_premium(self) -> float:
        """Sum of the layers' annual premiums."""
        return float(sum(layer.premium for layer in self.layers))

    def group_by(self, key: Callable[[Layer], str]) -> Dict[str, List[Layer]]:
        """Group layers by an arbitrary key function (cedant, kind, region...)."""
        groups: Dict[str, List[Layer]] = {}
        for layer in self.layers:
            groups.setdefault(key(layer), []).append(layer)
        return groups

    def group_by_contract_kind(self) -> Dict[str, List[Layer]]:
        """Group layers by contract family (per-occurrence XL, aggregate XL, ...)."""
        return self.group_by(lambda layer: layer.contract_kind)

    def subset(self, indices: Sequence[int], name: str | None = None) -> "ReinsuranceProgram":
        """A new program containing only the layers at ``indices``."""
        selected = [self.layers[i] for i in indices]
        return ReinsuranceProgram(selected, name=name or f"{self.name}/subset")

    def memory_estimate_bytes(self) -> int:
        """Estimated memory of all layers' dense loss matrices (direct access tables).

        This is the figure the paper uses to motivate the memory cost of
        direct access tables ("15 x 2 million = 30 million event-loss pairs").
        Matrices are not materialised by this call.
        """
        return sum(layer.n_elts * layer.catalog_size * 8 for layer in self.layers)
