"""Currency handling for ELT metadata.

The paper notes that "each ELT is characterised by its own metadata including
information about currency exchange rates".  A cedant reporting in EUR or JPY
has its expected losses converted into the analysis (portfolio) currency
before aggregation; the conversion rate is folded into the per-ELT financial
terms as ``fx_rate``.
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping

from repro.utils.validation import ensure_positive

__all__ = ["Currency", "CurrencyConverter"]


class Currency(enum.Enum):
    """ISO-4217 style currency codes used by the synthetic workloads."""

    USD = "USD"
    EUR = "EUR"
    GBP = "GBP"
    JPY = "JPY"
    CAD = "CAD"
    AUD = "AUD"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Illustrative long-run average rates to USD used as defaults by the
#: workload generator (the precise values are irrelevant to the engine's
#: behaviour; they only need to be positive and distinct).
_DEFAULT_RATES_TO_USD: Dict[Currency, float] = {
    Currency.USD: 1.00,
    Currency.EUR: 1.10,
    Currency.GBP: 1.28,
    Currency.JPY: 0.0085,
    Currency.CAD: 0.75,
    Currency.AUD: 0.68,
}


class CurrencyConverter:
    """Converts amounts between currencies via per-currency rates to a base.

    Parameters
    ----------
    rates_to_base:
        Mapping of currency to its value expressed in the base currency
        (e.g. ``{EUR: 1.10}`` means 1 EUR = 1.10 base units).  The base
        currency itself must map to 1.0 if present.
    base:
        The base (analysis) currency.
    """

    def __init__(
        self,
        rates_to_base: Mapping[Currency, float] | None = None,
        base: Currency = Currency.USD,
    ) -> None:
        self.base = base
        rates = dict(_DEFAULT_RATES_TO_USD if rates_to_base is None else rates_to_base)
        if base not in rates:
            rates[base] = 1.0
        for currency, rate in rates.items():
            ensure_positive(rate, f"rate for {currency}")
        if abs(rates[base] - 1.0) > 1e-12:
            raise ValueError(f"rate for base currency {base} must be 1.0, got {rates[base]}")
        self._rates = rates

    def rate(self, source: Currency, target: Currency | None = None) -> float:
        """Conversion rate from ``source`` to ``target`` (default: the base)."""
        target = self.base if target is None else target
        try:
            to_base = self._rates[source]
            target_to_base = self._rates[target]
        except KeyError as exc:
            raise KeyError(f"unknown currency {exc.args[0]}") from exc
        return to_base / target_to_base

    def fx_rate_for_elt(self, elt_currency: Currency) -> float:
        """The ``fx_rate`` to embed in an ELT's financial terms."""
        return self.rate(elt_currency, self.base)
