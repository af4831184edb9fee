"""Stochastic event catalog substrate.

A catastrophe model starts from a *stochastic event catalog*: a large set of
synthetic catastrophic events ("a mathematical representation of the natural
occurrence patterns and characteristics of catastrophe perils such as
hurricanes, tornadoes, severe winter storms or earthquakes" — Section I of the
paper).  Each event carries the peril it belongs to, an annual occurrence
rate, and severity parameters from which per-site losses are later derived by
the hazard/vulnerability model (:mod:`repro.hazard`).

The paper's experiments use a global multi-peril catalog of up to two million
events; :class:`~repro.catalog.generator.CatalogGenerator` produces synthetic
catalogs of any size with realistic rate/severity structure.
"""

from repro.catalog.events import Event, EventCatalog
from repro.catalog.frequency import FrequencyModel, PoissonFrequency
from repro.catalog.generator import CatalogGenerator, PerilMix
from repro.catalog.peril import Peril, PerilProfile, default_peril_profiles
from repro.catalog.severity import LognormalSeverity, SeverityModel

__all__ = [
    "Peril",
    "PerilProfile",
    "default_peril_profiles",
    "Event",
    "EventCatalog",
    "FrequencyModel",
    "PoissonFrequency",
    "SeverityModel",
    "LognormalSeverity",
    "CatalogGenerator",
    "PerilMix",
]
