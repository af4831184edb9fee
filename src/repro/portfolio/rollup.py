"""Portfolio roll-up: combine per-layer YLTs into portfolio-level risk.

"Aggregate analysis using 50K trials on complete portfolios consisting of 5000
contracts can be completed in around 24 hours which may be sufficiently fast to
support weekly portfolio updates" (Section IV).  The roll-up is the step after
the engine: per-layer year losses are summed trial-wise (losses of different
layers in the same simulated year add), producing the portfolio year-loss
distribution, per-layer diversification statistics and group-level summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.portfolio.program import ReinsuranceProgram
from repro.ylt.metrics import RiskMetrics, compute_risk_metrics_batch
from repro.ylt.table import YearLossTable

__all__ = ["RollupResult", "portfolio_rollup"]


@dataclass(frozen=True)
class RollupResult:
    """Portfolio roll-up output.

    Attributes
    ----------
    portfolio_metrics:
        Risk metrics of the trial-wise sum of all layers' year losses.
    layer_metrics:
        Per-layer risk metrics keyed by layer name.
    diversification_benefit:
        1 - (portfolio PML / sum of standalone layer PMLs) at the reference
        return period; positive values quantify the diversification across
        layers.
    reference_return_period:
        Return period used for the diversification statistic.
    group_metrics:
        Optional metrics per group (e.g. per contract kind).
    """

    portfolio_metrics: RiskMetrics
    layer_metrics: Mapping[str, RiskMetrics]
    diversification_benefit: float
    reference_return_period: float
    group_metrics: Mapping[str, RiskMetrics]

    @property
    def portfolio_aal(self) -> float:
        """Average annual loss of the whole portfolio."""
        return self.portfolio_metrics.aal


def portfolio_rollup(
    ylt: YearLossTable,
    program: ReinsuranceProgram | None = None,
    reference_return_period: float = 100.0,
) -> RollupResult:
    """Roll a per-layer YLT up to portfolio level.

    Parameters
    ----------
    ylt:
        Year Loss Table with one row per layer.
    program:
        Optional program; when given, group-level metrics are computed per
        contract kind (layer names must match between program and YLT).
    reference_return_period:
        Return period for the diversification-benefit statistic.
    """
    if reference_return_period < 1.0:
        raise ValueError("reference_return_period must be at least 1 year")

    return_periods = (10.0, 25.0, 50.0, 100.0, 250.0, reference_return_period)
    layer_rows = compute_risk_metrics_batch(ylt.losses, return_periods=return_periods)
    per_layer = dict(zip(ylt.layer_names, layer_rows))
    standalone_pml_sum = 0.0
    for metrics in layer_rows:
        standalone_pml_sum += metrics.pml[reference_return_period]

    # The portfolio row and the per-kind group rows share one batch call.
    group_kinds: list[str] = []
    aggregate_rows = [ylt.portfolio_losses()]
    if program is not None:
        name_to_row = {name: i for i, name in enumerate(ylt.layer_names)}
        for kind, layers in program.group_by_contract_kind().items():
            rows = [name_to_row[layer.name] for layer in layers if layer.name in name_to_row]
            if rows:
                group_kinds.append(kind)
                aggregate_rows.append(ylt.losses[rows].sum(axis=0))
    portfolio_metrics, *grouped = compute_risk_metrics_batch(
        np.stack(aggregate_rows), return_periods=return_periods
    )
    group_metrics: Dict[str, RiskMetrics] = dict(zip(group_kinds, grouped))

    portfolio_pml = portfolio_metrics.pml[reference_return_period]
    if standalone_pml_sum > 0:
        diversification = 1.0 - portfolio_pml / standalone_pml_sum
    else:
        diversification = 0.0

    return RollupResult(
        portfolio_metrics=portfolio_metrics,
        layer_metrics=per_layer,
        diversification_benefit=float(np.clip(diversification, -1.0, 1.0)),
        reference_return_period=float(reference_return_period),
        group_metrics=group_metrics,
    )
