"""Tests for repro.financial.currency."""

import pytest

from repro.financial.currency import Currency, CurrencyConverter


class TestCurrencyConverter:
    def test_default_rates_identity_for_base(self):
        converter = CurrencyConverter()
        assert converter.rate(Currency.USD) == pytest.approx(1.0)

    def test_convert_to_base(self):
        converter = CurrencyConverter({Currency.EUR: 1.2, Currency.USD: 1.0})
        assert 100.0 * converter.rate(Currency.EUR) == pytest.approx(120.0)

    def test_cross_rate(self):
        converter = CurrencyConverter({Currency.EUR: 1.2, Currency.GBP: 1.5, Currency.USD: 1.0})
        assert converter.rate(Currency.GBP, Currency.EUR) == pytest.approx(1.25)

    def test_round_trip_conversion(self):
        converter = CurrencyConverter()
        amount = 1234.5
        eur = amount * converter.rate(Currency.USD, Currency.EUR)
        back = eur * converter.rate(Currency.EUR, Currency.USD)
        assert back == pytest.approx(amount)

    def test_fx_rate_for_elt(self):
        converter = CurrencyConverter({Currency.JPY: 0.01, Currency.USD: 1.0})
        assert converter.fx_rate_for_elt(Currency.JPY) == pytest.approx(0.01)

    def test_unknown_currency_raises(self):
        converter = CurrencyConverter({Currency.USD: 1.0})
        with pytest.raises(KeyError):
            converter.rate(Currency.AUD)

    def test_base_rate_must_be_one(self):
        with pytest.raises(ValueError):
            CurrencyConverter({Currency.USD: 2.0})

    def test_non_positive_rate_rejected(self):
        with pytest.raises(ValueError):
            CurrencyConverter({Currency.EUR: 0.0, Currency.USD: 1.0})

    def test_custom_base(self):
        converter = CurrencyConverter({Currency.USD: 0.9, Currency.EUR: 1.0}, base=Currency.EUR)
        assert converter.base is Currency.EUR
        assert 10.0 * converter.rate(Currency.USD) == pytest.approx(9.0)
