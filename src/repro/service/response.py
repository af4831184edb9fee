"""The uniform analysis-response envelope.

Every request kind returns the same shape: an :class:`AnalysisResponse`
wrapping the underlying engine artifacts — one or more
:class:`~repro.core.results.EngineResult`, optional
:class:`~repro.portfolio.pricing.ProgramQuote` objects, optional
secondary-uncertainty bands — plus the metadata a serving layer needs:
which backend answered, whether the plan cache was warm
(:class:`CacheInfo`), and where the time went (lowering vs execution).

``to_dict`` renders a JSON-compatible summary (metrics, timings, cache
counters — not the raw per-trial arrays) for the ``are serve`` NDJSON loop;
the full arrays stay reachable through ``results`` for in-process callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, TYPE_CHECKING

from repro.core.results import EngineResult
from repro.portfolio.pricing import ProgramQuote
from repro.service.request import AnalysisRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uncertainty.analysis import ReplicationSummary

__all__ = ["AnalysisResponse", "CacheInfo", "error_payload"]


def error_payload(exc: Exception) -> dict[str, Any]:
    """Structured error envelope shared by every serving surface.

    ``are serve`` (stdin and TCP), ``are request`` and the HTTP shim all
    answer a failed request with the same shape::

        {"error": {"message": ..., "type": ..., "field": ...?}}

    ``type`` is the exception class name (``"Overloaded"`` for admission
    rejections); ``field`` rides along for schema errors, and ``missing``
    (kind → digest) for a fleet worker's ``MissingArtifact``, so callers can
    handle failures programmatically instead of parsing message strings.
    """
    error: dict[str, Any] = {"message": str(exc), "type": type(exc).__name__}
    field_name = getattr(exc, "field", None)
    if field_name is not None:
        error["field"] = field_name
    missing = getattr(exc, "missing", None)
    if missing is not None:
        error["missing"] = dict(missing)
    return {"error": error}


@dataclass(frozen=True)
class CacheInfo:
    """How the plan cache served one request.

    Attributes
    ----------
    hit:
        True when every plan the request needed came from the cache (a
        multi-block sweep is a hit only if *all* its blocks were cached).
    hits, misses:
        Cache lookups performed by this request.
    key:
        Hex prefix of the request's primary cache key (diagnostic).
    """

    hit: bool
    hits: int
    misses: int
    key: str = ""

    def summary(self) -> str:
        """``warm``/``cold`` plus the lookup counters."""
        label = "warm" if self.hit else "cold"
        return f"{label} ({self.hits} hits / {self.misses} misses)"


@dataclass(frozen=True)
class AnalysisResponse:
    """Uniform result envelope returned by :meth:`RiskService.submit`.

    Attributes
    ----------
    request:
        The (validated) request this response answers.
    results:
        The engine results, in request order — one for ``run``, one per
        program for ``run_many``/``sweep``, and the expected-program result
        for ``uncertainty``.
    quotes:
        Technical-premium quotes where the kind supports them (and the
        request asked for them); the ``uncertainty`` quote carries the
        replication bands.
    bands:
        Secondary-uncertainty metric distributions (``uncertainty`` only).
    cache:
        Plan-cache behaviour for this request (``None`` for kinds that do
        not consult the cache).
    timings:
        Seconds by stage: ``"lower"`` (digesting + plan lowering + stack
        build on a miss), ``"execute"`` (engine passes) and ``"total"``.
    backend:
        Name of the backend that executed the request.
    details:
        Kind-specific JSON-compatible extras (e.g. the per-block shapes of
        a sweep, or the ``"result_cache"`` payload of a result-cache-served
        ``run`` — see :attr:`result_cache`).
    """

    request: AnalysisRequest
    results: tuple[EngineResult, ...]
    quotes: tuple[ProgramQuote, ...] = ()
    bands: "Mapping[str, ReplicationSummary] | None" = None
    cache: CacheInfo | None = None
    timings: Mapping[str, float] = field(default_factory=dict)
    backend: str = ""
    details: Mapping[str, Any] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        """The request kind this response answers."""
        return self.request.kind

    @property
    def result(self) -> EngineResult:
        """The single engine result (ValueError when there are several)."""
        if len(self.results) != 1:
            raise ValueError(
                f"response carries {len(self.results)} results; index `results` directly"
            )
        return self.results[0]

    @property
    def total_seconds(self) -> float:
        """End-to-end service time of the request."""
        return float(self.timings.get("total", 0.0))

    @property
    def result_cache(self) -> Mapping[str, Any] | None:
        """How the result cache served this request (``None`` when unused).

        A mapping with ``"status"`` (``"exact"``/``"append"``/``"rows"``/
        ``"miss"``), the delta shape (``"repriced_trials"`` or
        ``"repriced_rows"``), and a ``"stats"`` counter snapshot; rides in
        :attr:`details` so it reaches ``are serve`` clients via ``to_dict``.
        """
        return self.details.get("result_cache") if self.details else None

    def summary(self) -> str:
        """One-line human-readable summary."""
        parts = [f"{self.kind} on {self.backend}"]
        if len(self.results) != 1:
            parts.append(f"{len(self.results)} results")
        if self.cache is not None:
            parts.append(self.cache.summary())
        result_cache = self.result_cache
        if result_cache is not None:
            parts.append(f"result-cache {result_cache.get('status', '?')}")
        parts.append(f"{self.total_seconds:.4f}s")
        return " | ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible summary (no per-trial arrays)."""
        payload: dict[str, Any] = {
            "kind": self.kind,
            "backend": self.backend,
            "timings": {name: float(value) for name, value in self.timings.items()},
            "results": [
                {
                    "n_layers": result.ylt.n_layers,
                    "n_trials": result.ylt.n_trials,
                    "wall_seconds": result.wall_seconds,
                    "portfolio_aal": float(result.ylt.portfolio_losses().mean()),
                }
                for result in self.results
            ],
            "quotes": [
                {
                    "program": quote.program_name,
                    "expected_loss": quote.total_expected_loss,
                    "premium": quote.total_premium,
                }
                for quote in self.quotes
            ],
            "tags": dict(self.request.tags),
        }
        if self.details:
            payload["details"] = dict(self.details)
        if self.cache is not None:
            payload["cache"] = {
                "hit": self.cache.hit,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "key": self.cache.key,
            }
        if self.bands is not None:
            payload["bands"] = {
                name: {
                    "mean": band.mean,
                    "std": band.std,
                    "low": band.low,
                    "high": band.high,
                }
                for name, band in self.bands.items()
            }
        return payload
