"""Year Loss Table (YLT) and portfolio risk metrics.

The YLT is the output of the aggregate analysis: one loss value per trial per
layer.  "From a YLT, a reinsurer can derive important portfolio risk metrics
such as the Probable Maximum Loss (PML) and the Tail Value at Risk (TVAR)
which are used for both internal risk management and reporting to regulators
and rating agencies" (Section I).

* :mod:`repro.ylt.table` — the :class:`YearLossTable` container,
* :mod:`repro.ylt.ep_curve` — exceedance-probability curves (AEP and OEP),
* :mod:`repro.ylt.metrics` — PML, TVaR, AAL and related summary metrics,
* :mod:`repro.ylt.reporting` — formatted risk reports.
"""

from repro.ylt.ep_curve import EPCurve, aep_curve, oep_curve
from repro.ylt.metrics import RiskMetrics, aal, compute_risk_metrics, pml, tvar
from repro.ylt.reporting import format_metrics_report, format_ep_table
from repro.ylt.table import YearLossTable

__all__ = [
    "YearLossTable",
    "EPCurve",
    "aep_curve",
    "oep_curve",
    "aal",
    "pml",
    "tvar",
    "RiskMetrics",
    "compute_risk_metrics",
    "format_metrics_report",
    "format_ep_table",
]
