"""Request/response serving layer over the aggregate risk engine.

The subsystem behind the library's serving story: declarative, validated
:class:`~repro.service.request.AnalysisRequest` documents (dict/JSON
round-trippable) are dispatched by a long-lived
:class:`~repro.service.service.RiskService` that owns a warm
:class:`~repro.core.engine.AggregateRiskEngine`, a content-addressed
:class:`~repro.service.cache.PlanCache` of lowered execution plans
(:mod:`repro.service.digests` provides the content digests), and retained multicore shared-memory workspaces; every answer is
a uniform :class:`~repro.service.response.AnalysisResponse` carrying the
engine results, quotes and bands plus cache and timing metadata.

On top of the plan cache, an opt-in delta-aware
:class:`~repro.service.result_cache.ResultCache` caches *accumulated
results* for the ``run``, ``run_many`` and ``sweep`` kinds (one entry per
request): exact repeats skip the kernel pass, and
append-trials or changed-layer deltas re-price only the appended trial
range or the changed stack rows — bit-identical to a cold run by the
partial-result merge algebra.

CLI entry points: ``are request`` (one JSON request round trip) and
``are serve`` (a warm NDJSON request loop), both taking ``--result-cache``.
"""

from repro.service.cache import CacheStats, PlanCache
from repro.service.digests import (
    PLAN_RELEVANT_CONFIG_FIELDS,
    config_digest,
    program_digest,
    yet_digest,
    yet_prefix_digest,
)
from repro.service.request import (
    REQUEST_KINDS,
    AnalysisRequest,
    RequestValidationError,
)
from repro.service.response import AnalysisResponse, CacheInfo, error_payload
from repro.service.result_cache import ResultCache, ResultCacheMatch, ResultCacheStats
from repro.service.server import (
    Overloaded,
    RiskServer,
    ServeClient,
    ServerStats,
    ServerThread,
)
from repro.service.service import PreparedSubmission, RiskService, candidate_variants

__all__ = [
    "AnalysisRequest",
    "AnalysisResponse",
    "CacheInfo",
    "CacheStats",
    "Overloaded",
    "PlanCache",
    "PLAN_RELEVANT_CONFIG_FIELDS",
    "PreparedSubmission",
    "REQUEST_KINDS",
    "RequestValidationError",
    "ResultCache",
    "ResultCacheMatch",
    "ResultCacheStats",
    "RiskServer",
    "RiskService",
    "ServeClient",
    "ServerStats",
    "ServerThread",
    "candidate_variants",
    "error_payload",
    "config_digest",
    "program_digest",
    "yet_digest",
    "yet_prefix_digest",
]
