"""Portfolio risk metrics derived from Year Loss Tables.

These are the "filters (financial functions) ... applied on the aggregate loss
values" of Section II-C and the metrics named in the paper's introduction:

* **AAL** — average annual loss, the mean of the year losses;
* **PML** — probable maximum loss at a return period ``R``: the year-loss
  quantile exceeded with probability ``1/R``;
* **TVaR** — tail value at risk at probability level ``p``: the expected year
  loss conditional on being in the worst ``(1-p)`` fraction of years;
* standard deviation and selected quantiles as supporting statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.utils.validation import ensure_positive, ensure_probability
from repro.ylt.table import YearLossTable

__all__ = ["aal", "pml", "tvar", "value_at_risk", "RiskMetrics", "compute_risk_metrics",
           "compute_risk_metrics_batch",
           "DEFAULT_RETURN_PERIODS", "DEFAULT_TVAR_LEVELS"]

#: Return periods (years) reported by default: the levels regulators and
#: rating agencies most commonly request.
DEFAULT_RETURN_PERIODS: tuple[float, ...] = (5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0)

#: TVaR probability levels reported by default.
DEFAULT_TVAR_LEVELS: tuple[float, ...] = (0.95, 0.99, 0.996)

#: Heap bound on the sorted working copy :func:`compute_risk_metrics_batch`
#: hands to ``np.quantile``: rows are evaluated in blocks of at most this
#: many bytes (one row at a time when a single row is larger).
_BLOCK_BYTES = 16 << 20


def aal(year_losses: np.ndarray) -> float:
    """Average annual loss: the mean of the per-trial year losses."""
    values = np.asarray(year_losses, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot compute AAL of zero trials")
    return float(values.mean())


def value_at_risk(year_losses: np.ndarray, probability: float) -> float:
    """Value at Risk: the ``probability`` quantile of the year-loss distribution."""
    values = np.asarray(year_losses, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot compute VaR of zero trials")
    ensure_probability(probability, "probability")
    return float(np.quantile(values, probability))


def _return_period_probability(return_period_years: float) -> float:
    """The quantile level ``1 - 1/R`` of a return period of ``R >= 1`` years."""
    ensure_positive(return_period_years, "return_period_years")
    if return_period_years < 1.0:
        raise ValueError(
            f"return period must be at least 1 year, got {return_period_years}"
        )
    return 1.0 - 1.0 / return_period_years


def pml(year_losses: np.ndarray, return_period_years: float) -> float:
    """Probable Maximum Loss at a return period.

    The PML at return period ``R`` is the loss exceeded on average once every
    ``R`` years, i.e. the ``1 - 1/R`` quantile of the year-loss distribution.
    """
    return value_at_risk(year_losses, _return_period_probability(return_period_years))


def tvar(year_losses: np.ndarray, probability: float) -> float:
    """Tail Value at Risk at probability level ``probability``.

    The expected year loss conditional on the loss being at or above the
    ``probability`` quantile.  With an empirical distribution the conditional
    mean is taken over the trials at or above the quantile (at least one trial
    by construction).
    """
    values = np.asarray(year_losses, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot compute TVaR of zero trials")
    ensure_probability(probability, "probability")
    threshold = np.quantile(values, probability)
    tail = values[values >= threshold]
    if tail.size == 0:  # pragma: no cover - cannot happen with >=
        return float(threshold)
    return float(tail.mean())


@dataclass(frozen=True)
class RiskMetrics:
    """Summary risk metrics of one year-loss distribution.

    Attributes
    ----------
    aal:
        Average annual loss.
    std:
        Standard deviation of the year losses.
    pml:
        Mapping of return period (years) to PML.
    tvar:
        Mapping of probability level to TVaR.
    max_loss:
        Largest simulated year loss.
    n_trials:
        Number of trials the metrics were computed from.
    """

    aal: float
    std: float
    pml: Mapping[float, float] = field(default_factory=dict)
    tvar: Mapping[float, float] = field(default_factory=dict)
    max_loss: float = 0.0
    n_trials: int = 0


def compute_risk_metrics_batch(
    losses_2d: np.ndarray,
    return_periods: Sequence[float] = DEFAULT_RETURN_PERIODS,
    tvar_levels: Sequence[float] = DEFAULT_TVAR_LEVELS,
) -> tuple[RiskMetrics, ...]:
    """The standard metric set of every row of a ``(n_rows, n_trials)`` matrix.

    One pass replaces ``n_rows * (len(return_periods) + len(tvar_levels))``
    scalar quantile calls: the levels are validated once, a single
    ``np.quantile(..., axis=1)`` call yields every PML and every TVaR
    threshold of every row, and AAL / standard deviation / maximum are
    axis-1 reductions.  Every field of every :class:`RiskMetrics` is ``==``
    what :func:`aal`, :func:`pml`, :func:`tvar`, ``std(ddof=1)`` and ``max``
    return for that row on its own: quantiles interpolate the same order
    statistics, row reductions over the contiguous trial axis add in the same
    pairwise order as the 1-D calls, and each TVaR tail is averaged over the
    row's trials in their original order.
    """
    losses = np.asarray(losses_2d, dtype=np.float64)
    if losses.ndim != 2:
        raise ValueError(f"losses_2d must be 2-D (n_rows, n_trials), got shape {losses.shape}")
    return_periods, tvar_levels = tuple(return_periods), tuple(tvar_levels)
    probabilities = np.array(
        [_return_period_probability(rp) for rp in return_periods]
        + [ensure_probability(level, "probability") for level in tvar_levels],
        dtype=np.float64,
    )
    periods = [float(rp) for rp in return_periods]
    levels = [float(level) for level in tvar_levels]
    n_rows, n_trials = losses.shape
    if n_rows == 0:
        return ()
    if n_trials == 0:
        raise ValueError("cannot compute metrics of zero trials")

    n_periods = len(periods)
    block_rows = max(1, _BLOCK_BYTES // (n_trials * losses.itemsize))
    metrics: list[RiskMetrics] = []
    for start in range(0, n_rows, block_rows):
        block = np.ascontiguousarray(losses[start:start + block_rows])
        # Sorting the working copy first makes the quantile's partition about
        # twice as cheap; the order statistics it interpolates are the same.
        quantiles = np.quantile(
            np.sort(block, axis=1), probabilities, axis=1, overwrite_input=True
        ).T
        means = block.mean(axis=1).tolist()
        stds = block.std(axis=1, ddof=1).tolist() if n_trials > 1 else [0.0] * len(block)
        maxima = block.max(axis=1).tolist()
        for row, row_quantiles, mean, std, maximum in zip(
            block, quantiles.tolist(), means, stds, maxima
        ):
            tails = []
            for threshold in row_quantiles[n_periods:]:
                tail = row[row >= threshold]
                # Empty only for a NaN threshold (NaN losses); mirror tvar().
                tails.append(float(tail.mean()) if tail.size else threshold)
            metrics.append(RiskMetrics(
                aal=mean,
                std=std,
                pml=dict(zip(periods, row_quantiles[:n_periods])),
                tvar=dict(zip(levels, tails)),
                max_loss=maximum,
                n_trials=n_trials,
            ))
    return tuple(metrics)


def compute_risk_metrics(
    year_losses: np.ndarray,
    return_periods: Sequence[float] = DEFAULT_RETURN_PERIODS,
    tvar_levels: Sequence[float] = DEFAULT_TVAR_LEVELS,
) -> RiskMetrics:
    """Compute the standard metric set from a year-loss vector.

    The one-row case of :func:`compute_risk_metrics_batch`.
    """
    values = np.asarray(year_losses, dtype=np.float64)
    return compute_risk_metrics_batch(values.reshape(1, -1), return_periods, tvar_levels)[0]


def layer_metrics(ylt: YearLossTable,
                  return_periods: Sequence[float] = DEFAULT_RETURN_PERIODS,
                  tvar_levels: Sequence[float] = DEFAULT_TVAR_LEVELS,
                  ) -> dict[str, RiskMetrics]:
    """Per-layer metrics for every layer of a YLT."""
    return dict(zip(
        ylt.layer_names, compute_risk_metrics_batch(ylt.losses, return_periods, tvar_levels)
    ))
