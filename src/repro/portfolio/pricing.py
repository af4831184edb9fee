"""Layer pricing from simulated year-loss distributions.

Pricing a reinsurance layer from the aggregate analysis output is the business
purpose of the real-time scenario in Section IV: the underwriter re-runs the
engine under candidate terms and needs the expected loss, volatility loading
and resulting premium for each candidate.  The standard technical-premium
formula used here is

``premium = expected_loss + volatility_load * std + expense_ratio * premium``

solved for the premium, i.e. ``premium = (EL + k * std) / (1 - expense_ratio)``.

:func:`batch_quote` is the batch form of that scenario: many candidate
programs (term variants, competing submissions) are priced in *one* engine
invocation — their layers are concatenated and flow through the fused
multi-layer kernel together — and one :class:`ProgramQuote` per program comes
back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, TYPE_CHECKING

import numpy as np

from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.utils.validation import ensure_non_negative
from repro.ylt.metrics import RiskMetrics, compute_risk_metrics, compute_risk_metrics_batch
from repro.ylt.table import YearLossTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports Layer)
    from repro.core.engine import AggregateRiskEngine
    from repro.uncertainty.analysis import ReplicationSummary
    from repro.yet.table import YearEventTable

__all__ = [
    "LayerPricing",
    "ProgramQuote",
    "price_layer",
    "price_program",
    "batch_quote",
    "rate_on_line",
    "loss_ratio",
]


@dataclass(frozen=True)
class LayerPricing:
    """Pricing result for one layer.

    Attributes
    ----------
    expected_loss:
        Mean annual loss to the layer (the AAL of its year losses).
    volatility_load:
        The volatility loading amount (``k * std``).
    expense_load:
        The expense/profit loading amount.
    technical_premium:
        Total technical premium (expected loss + loads).
    rate_on_line:
        Premium divided by the layer's aggregate limit (when finite).
    metrics:
        Full risk metrics of the layer's year losses.
    """

    expected_loss: float
    volatility_load: float
    expense_load: float
    technical_premium: float
    rate_on_line: float
    metrics: RiskMetrics

    def summary(self) -> str:
        """One-line pricing summary."""
        rol = f"{self.rate_on_line:.1%}" if np.isfinite(self.rate_on_line) else "n/a"
        return (
            f"EL={self.expected_loss:,.0f} "
            f"vol_load={self.volatility_load:,.0f} "
            f"premium={self.technical_premium:,.0f} "
            f"RoL={rol}"
        )


@dataclass(frozen=True)
class ProgramQuote:
    """Pricing result for every layer of one program.

    Attributes
    ----------
    program_name:
        Name of the quoted program.
    layer_names:
        Names of the layers, aligned with ``layer_pricings``.
    layer_pricings:
        One :class:`LayerPricing` per layer, in program order.
    uncertainty:
        Optional secondary-uncertainty bands: a mapping of metric name
        (``"aal"``, ``"pml_<rp>"``, ``"tvar_<level>"``) to the
        :class:`~repro.uncertainty.analysis.ReplicationSummary` of that
        metric across sampled replications, as produced by
        :meth:`~repro.uncertainty.analysis.SecondaryUncertaintyAnalysis.run_batched`.
        ``None`` for a plain (mean-loss) quote.
    """

    program_name: str
    layer_names: tuple[str, ...]
    layer_pricings: tuple[LayerPricing, ...]
    uncertainty: "Mapping[str, ReplicationSummary] | None" = None

    @property
    def has_uncertainty(self) -> bool:
        """True when the quote carries secondary-uncertainty bands."""
        return bool(self.uncertainty)

    def band(self, metric: str) -> "ReplicationSummary":
        """Uncertainty band of one metric (KeyError if absent)."""
        if not self.uncertainty:
            raise KeyError(
                f"quote for {self.program_name!r} carries no uncertainty bands"
            )
        return self.uncertainty[metric]

    @property
    def n_layers(self) -> int:
        """Number of quoted layers."""
        return len(self.layer_pricings)

    @property
    def total_expected_loss(self) -> float:
        """Sum of the layers' expected annual losses."""
        return float(sum(p.expected_loss for p in self.layer_pricings))

    @property
    def total_premium(self) -> float:
        """Sum of the layers' technical premiums."""
        return float(sum(p.technical_premium for p in self.layer_pricings))

    def layer(self, index_or_name: int | str) -> LayerPricing:
        """Pricing of one layer, by position or by name."""
        if isinstance(index_or_name, str):
            try:
                index = self.layer_names.index(index_or_name)
            except ValueError as exc:
                raise KeyError(
                    f"no layer named {index_or_name!r} in quote for {self.program_name!r}"
                ) from exc
        else:
            index = index_or_name
        return self.layer_pricings[index]

    def summary(self) -> str:
        """One-line quote summary (with the AAL band when bands are attached)."""
        line = (
            f"{self.program_name}: layers={self.n_layers} "
            f"EL={self.total_expected_loss:,.0f} premium={self.total_premium:,.0f}"
        )
        if self.uncertainty and "aal" in self.uncertainty:
            band = self.uncertainty["aal"]
            line += f" aal_band=[{band.low:,.0f}, {band.high:,.0f}]"
        return line


def rate_on_line(premium: float, aggregate_limit: float) -> float:
    """Premium as a fraction of the layer's (finite) aggregate limit."""
    ensure_non_negative(premium, "premium")
    if aggregate_limit <= 0:
        raise ValueError(f"aggregate_limit must be positive, got {aggregate_limit}")
    if not np.isfinite(aggregate_limit):
        return float("nan")
    return premium / aggregate_limit


def loss_ratio(expected_loss: float, premium: float) -> float:
    """Expected loss divided by premium (the underwriter's loss ratio)."""
    ensure_non_negative(expected_loss, "expected_loss")
    if premium <= 0:
        raise ValueError(f"premium must be positive, got {premium}")
    return expected_loss / premium


def _check_loadings(volatility_loading: float, expense_ratio: float) -> None:
    ensure_non_negative(volatility_loading, "volatility_loading")
    if not 0.0 <= expense_ratio < 1.0:
        raise ValueError(f"expense_ratio must be in [0, 1), got {expense_ratio}")


def _pricing_from_metrics(
    layer: Layer, metrics: RiskMetrics, volatility_loading: float, expense_ratio: float
) -> LayerPricing:
    """The technical-premium formula applied to a layer's computed metrics."""
    expected_loss = metrics.aal
    volatility_load = volatility_loading * metrics.std
    premium = (expected_loss + volatility_load) / (1.0 - expense_ratio)
    expense_load = premium - expected_loss - volatility_load

    limit = layer.terms.aggregate_limit
    if not np.isfinite(limit):
        # For pure per-occurrence layers use the occurrence limit as the line.
        limit = layer.terms.occurrence_limit
    rol = rate_on_line(premium, limit) if np.isfinite(limit) and limit > 0 else float("nan")

    return LayerPricing(
        expected_loss=expected_loss,
        volatility_load=volatility_load,
        expense_load=expense_load,
        technical_premium=premium,
        rate_on_line=rol,
        metrics=metrics,
    )


def price_layer(
    layer: Layer,
    year_losses: np.ndarray,
    volatility_loading: float = 0.3,
    expense_ratio: float = 0.15,
) -> LayerPricing:
    """Price a layer from its simulated year losses.

    The one-layer case of :func:`price_program`.

    Parameters
    ----------
    layer:
        The layer being priced (its aggregate limit feeds the rate on line).
    year_losses:
        Per-trial year losses of the layer from the aggregate analysis.
    volatility_loading:
        Multiplier ``k`` on the year-loss standard deviation.
    expense_ratio:
        Fraction of the premium consumed by expenses and profit margin,
        in ``[0, 1)``.
    """
    _check_loadings(volatility_loading, expense_ratio)
    return _pricing_from_metrics(
        layer, compute_risk_metrics(year_losses), volatility_loading, expense_ratio
    )


def price_program(
    program: ReinsuranceProgram,
    ylt: YearLossTable,
    volatility_loading: float = 0.3,
    expense_ratio: float = 0.15,
    uncertainty: "Mapping[str, ReplicationSummary] | None" = None,
) -> ProgramQuote:
    """Price every layer of a program from its Year Loss Table.

    ``ylt`` must be the engine output for exactly this program (one row per
    layer, in program order) — e.g. ``engine.run(program, yet).ylt`` or one
    element of :meth:`~repro.core.engine.AggregateRiskEngine.run_many`.
    The metrics of all layers come from one
    :func:`~repro.ylt.metrics.compute_risk_metrics_batch` call; every field
    equals what :func:`price_layer` returns for that layer on its own.

    ``uncertainty`` optionally attaches secondary-uncertainty bands (metric
    name to :class:`~repro.uncertainty.analysis.ReplicationSummary`) to the
    quote — typically the output of
    :meth:`~repro.uncertainty.analysis.SecondaryUncertaintyAnalysis.run_batched`;
    :meth:`~repro.uncertainty.analysis.SecondaryUncertaintyAnalysis.quote`
    wires the two together.
    """
    if ylt.n_layers != program.n_layers:
        raise ValueError(
            f"YLT has {ylt.n_layers} layers but program {program.name!r} "
            f"has {program.n_layers}"
        )
    _check_loadings(volatility_loading, expense_ratio)
    pricings = tuple(
        _pricing_from_metrics(layer, metrics, volatility_loading, expense_ratio)
        for layer, metrics in zip(program.layers, compute_risk_metrics_batch(ylt.losses))
    )
    return ProgramQuote(
        program_name=program.name,
        layer_names=program.layer_names,
        layer_pricings=pricings,
        uncertainty=uncertainty,
    )


def batch_quote(
    programs: Sequence[ReinsuranceProgram | Layer],
    yet: "YearEventTable",
    engine: "AggregateRiskEngine | None" = None,
    volatility_loading: float = 0.3,
    expense_ratio: float = 0.15,
) -> List[ProgramQuote]:
    """Quote many programs in one fused engine invocation.

    All programs are simulated against the same Year Event Table in a single
    :meth:`~repro.core.engine.AggregateRiskEngine.run_many` call (by default
    through the fused multi-layer kernel, with identical ELT gathers
    deduplicated across term variants), then each program's layers are
    priced from the resulting year losses.  This is the batched form of the
    paper's real-time pricing scenario: an underwriter's candidate-term
    variants are all answered from one pass over the YET.

    For very large sweeps — whole renewal books, wide term grids — prefer
    :class:`~repro.portfolio.sweep.PortfolioSweepService`, which streams the
    same computation in row-bounded blocks and yields quotes as a generator.
    """
    from repro.core.engine import AggregateRiskEngine

    normalised = [ReinsuranceProgram.wrap(p) for p in programs]
    if engine is None:
        engine = AggregateRiskEngine()
    results = engine.run_many(normalised, yet)
    return [
        price_program(
            program,
            result.ylt,
            volatility_loading=volatility_loading,
            expense_ratio=expense_ratio,
        )
        for program, result in zip(normalised, results)
    ]
