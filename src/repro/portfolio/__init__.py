"""Reinsurance portfolio substrate: layers, programs, pricing and roll-up.

A *layer* is the unit of analysis in the paper: a set of ELTs covered under
one set of layer terms.  A reinsurer's *program* (portfolio) holds thousands
of layers; portfolio-level analysis runs the aggregate engine over every layer
and rolls the per-layer Year Loss Tables up into a portfolio YLT from which
PML/TVaR are reported.
"""

from repro.portfolio.layer import Layer
from repro.portfolio.pricing import (
    LayerPricing,
    ProgramQuote,
    batch_quote,
    price_layer,
    price_program,
    rate_on_line,
)
from repro.portfolio.program import ReinsuranceProgram
from repro.portfolio.rollup import portfolio_rollup, RollupResult

__all__ = [
    "Layer",
    "ReinsuranceProgram",
    "LayerPricing",
    "ProgramQuote",
    "price_layer",
    "price_program",
    "batch_quote",
    "rate_on_line",
    "portfolio_rollup",
    "RollupResult",
]
