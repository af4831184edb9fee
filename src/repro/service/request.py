"""The declarative analysis-request schema.

An :class:`AnalysisRequest` is a plain, serializable description of one unit
of work for the :class:`~repro.service.service.RiskService` — the
request/response form of the engine's public workloads::

    kind="run"          one program over one YET          (engine.run)
    kind="run_many"     many programs / term variants     (one concatenated run)
    kind="sweep"        run_many priced in row blocks     (one concatenated run)
    kind="uncertainty"  replication-banded metrics/quote  (SecondaryUncertaintyAnalysis)

Requests reference their inputs *by name*: a name resolves against the
service's artifact registry (programs and YETs registered by the caller) and
falls back to the built-in workload presets (:mod:`repro.workloads.presets`),
so a request is pure data — it travels as a dict or JSON document
(``to_dict``/``from_dict``, ``from_json``) and two processes that registered
the same artifacts mean the same thing by the same request.

Validation is eager and total: :meth:`AnalysisRequest.validate` (called by
the service before dispatch) raises :class:`RequestValidationError` naming
the offending field.  ``from_dict`` rejects unknown keys outright, so a
misspelled option can never be silently ignored, and checks every value's
wire type, so ``"2"`` or ``2.5`` for a shard count is a field error rather
than a ``TypeError`` later or a cache key of its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping

__all__ = ["AnalysisRequest", "REQUEST_KINDS", "RequestValidationError"]

#: The request kinds the service dispatches.
REQUEST_KINDS: tuple[str, ...] = (
    "run",
    "run_many",
    "sweep",
    "uncertainty",
)

#: Sampling methods of the uncertainty kind.
UNCERTAINTY_METHODS: tuple[str, ...] = ("batched", "replay")


class RequestValidationError(ValueError):
    """An analysis request failed schema validation.

    Attributes
    ----------
    field:
        Name of the offending request field (``None`` for cross-field or
        document-level errors).
    """

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


def _error(message: str, field: str | None = None) -> RequestValidationError:
    prefix = f"invalid request field {field!r}: " if field else "invalid request: "
    return RequestValidationError(prefix + message, field=field)


#: The wire type of every field: a scalar type, or a one-element tuple for a
#: list of that type.  ``int`` excludes ``bool``; ``float`` takes any real
#: (JSON integers included).
_FIELD_TYPES: dict[str, Any] = {
    "kind": str, "program": str, "programs": (str,), "yet": str,
    "variants": int, "shards": int, "max_rows_per_block": int,
    "replications": int, "cv": float, "family": str, "method": str,
    "replication_block": int, "return_periods": (float,), "tvar_levels": (float,),
    "seed": int, "quote": bool, "result_cache": bool, "workers": (str,),
    "tags": Mapping,
}
#: Fields that also take ``null``.
_NULLABLE = frozenset({"program", "yet", "seed"})
_TYPE_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "a boolean",
    Mapping: "an object",
}


def _has_type(value: Any, expected: type) -> bool:
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if expected is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, expected)


def _check_band_names(metric: str, values: tuple, field: str) -> None:
    """Reject axis values that name one band twice: the uncertainty analysis
    keys its bands ``<metric>_<value:g>``, so ``100`` and ``100.0000001``
    would pool two metrics' values into one ``pml_100`` band."""
    if len(values) > 1 and len({format(value, "g") for value in values}) < len(values):
        names = [f"{metric}_{value:g}" for value in values]
        clashes = sorted({name for name in names if names.count(name) > 1})
        raise _error(f"values {list(values)} collide on band names {clashes}", field)


@dataclass(frozen=True)
class AnalysisRequest:
    """One declarative unit of work for the :class:`RiskService`.

    Attributes
    ----------
    kind:
        One of :data:`REQUEST_KINDS`.
    program:
        Name of the subject program — a registered program or a workload
        preset (``run``, ``uncertainty``, and the variant-expansion form of
        ``run_many``/``sweep``).
    programs:
        Explicit program names for ``run_many``/``sweep`` (mutually
        exclusive with ``variants``).
    yet:
        Name of the Year Event Table to price over.  ``None`` uses the YET
        registered under (or generated alongside) the subject program's name.
    variants:
        Expand ``program`` into this many candidate-term variants
        (``run_many``/``sweep``): variant ``i`` scales the occurrence and
        aggregate retentions by ``1 + 0.25 i``, the real-time pricing
        scenario of the paper's Section IV.
    shards:
        Execute the lowered plan(s) as this many disjoint trial shards
        (``0`` = the engine config's ``trial_shards``).  The merged result
        is bit-identical for every shard count; sharding bounds the
        per-pass working set.  Cache keys include the shard count, since it
        is lowered into the plan.
    max_rows_per_block:
        ``sweep`` only: price the rows the result cache cannot answer in
        blocks of at most this many rows, stacked before the merge — the
        bound on one pass's working set (``0`` = a single block).  The
        answer is bit-identical for every bound.
    replications, cv, family, method, replication_block:
        Options of the ``uncertainty`` kind: replication count, coefficient
        of variation wrapped around each ELT loss, conditional distribution
        family, ``"batched"``/``"replay"`` execution, and the streaming
        block size (``0`` = one fused pass).
    return_periods, tvar_levels:
        Metric axes of the ``uncertainty`` kind: finite return periods of
        at least one year, and TVaR levels in ``(0, 1)``.  Two values that
        print alike (``pml_100`` for both ``100`` and ``100.0000001``) would
        share one band, so they are rejected.
    seed:
        RNG seed of the ``uncertainty`` kind (``None`` = nondeterministic)
        and of preset workload generation (``None`` = the preset's seed);
        a non-negative integer.
    quote:
        Attach technical-premium :class:`~repro.portfolio.pricing.ProgramQuote`
        objects to the response where the kind supports them.
    result_cache:
        Let the service answer a ``run``, ``run_many`` or ``sweep`` request
        from its delta-aware result cache (when the service has one); the
        programs of one request share one entry.  Set ``False`` to force a
        full kernel pass for this request; the pass still populates the
        plan cache, but neither consults nor updates the result cache.
    workers:
        Fleet worker addresses (``"host:port"`` of ``are worker``
        processes) to distribute a ``run``, ``run_many`` or ``sweep``
        request across (not ``uncertainty``).  The shard
        merge is bit-identical to the local run; ``shards`` sets the fleet
        shard count (``0`` = two shards per worker).  Empty (the default)
        executes locally.  The result cache answers fleet requests as it
        does local ones; only the residual it cannot answer is sent to the
        workers, where the lowered plans stay warm.
    tags:
        Free-form client metadata echoed back on the response.
    """

    kind: str
    program: str | None = None
    programs: tuple[str, ...] = ()
    yet: str | None = None
    variants: int = 0
    shards: int = 0
    max_rows_per_block: int = 0
    replications: int = 64
    cv: float = 0.6
    family: str = "gamma"
    method: str = "batched"
    replication_block: int = 0
    return_periods: tuple[float, ...] = (100.0, 250.0)
    tvar_levels: tuple[float, ...] = (0.99,)
    seed: int | None = None
    quote: bool = True
    result_cache: bool = True
    workers: tuple[str, ...] = ()
    tags: Mapping[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> "AnalysisRequest":
        """Check the request schema; returns ``self`` for chaining."""
        if self.kind not in REQUEST_KINDS:
            raise _error(
                f"unknown kind {self.kind!r}; expected one of {REQUEST_KINDS}", "kind"
            )
        if self.variants < 0:
            raise _error(f"must be non-negative, got {self.variants}", "variants")
        if self.shards < 0:
            raise _error(f"must be non-negative, got {self.shards}", "shards")
        if self.max_rows_per_block < 0:
            raise _error(
                f"must be non-negative, got {self.max_rows_per_block}",
                "max_rows_per_block",
            )
        if self.replications <= 0:
            raise _error(f"must be positive, got {self.replications}", "replications")
        if self.replication_block < 0:
            raise _error(
                f"must be non-negative, got {self.replication_block}",
                "replication_block",
            )
        if self.cv < 0:
            raise _error(f"must be non-negative, got {self.cv}", "cv")
        if self.method not in UNCERTAINTY_METHODS:
            raise _error(
                f"unknown method {self.method!r}; expected one of {UNCERTAINTY_METHODS}",
                "method",
            )
        if not all(1.0 <= rp < math.inf for rp in self.return_periods):
            raise _error(
                f"return periods must be finite and at least 1 year, got "
                f"{list(self.return_periods)}",
                "return_periods",
            )
        if not all(0.0 < level < 1.0 for level in self.tvar_levels):
            raise _error("TVaR levels must lie in (0, 1)", "tvar_levels")
        _check_band_names("pml", self.return_periods, "return_periods")
        _check_band_names("tvar", self.tvar_levels, "tvar_levels")
        if self.seed is not None and self.seed < 0:
            raise _error(f"must be non-negative, got {self.seed}", "seed")
        if self.workers:
            if self.kind == "uncertainty":
                raise _error(
                    f"kind {self.kind!r} does not support distributed workers",
                    "workers",
                )
            for address in self.workers:
                host, sep, port = str(address).rpartition(":")
                if not sep or not host or not port.isdigit():
                    raise _error(
                        f"worker address must be HOST:PORT, got {address!r}",
                        "workers",
                    )

        if self.kind in ("run", "uncertainty"):
            if not self.program:
                raise _error(f"kind {self.kind!r} requires a program name", "program")
            if self.programs:
                raise _error(
                    f"kind {self.kind!r} takes a single program, not programs",
                    "programs",
                )
        if self.kind in ("run_many", "sweep"):
            if bool(self.programs) == bool(self.program and self.variants > 0):
                raise _error(
                    f"kind {self.kind!r} needs either explicit program names or "
                    "a subject program plus variants > 0",
                    "programs",
                )
        return self

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-compatible; tuples become lists)."""
        payload = asdict(self)
        payload["programs"] = list(self.programs)
        payload["return_periods"] = list(self.return_periods)
        payload["tvar_levels"] = list(self.tvar_levels)
        payload["workers"] = list(self.workers)
        payload["tags"] = dict(self.tags)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AnalysisRequest":
        """Build and validate a request from a plain dict.

        Unknown keys and values of the wrong wire type raise
        :class:`RequestValidationError` naming the field — a misspelled
        option must fail loudly, not fall back to a default.
        """
        if not isinstance(payload, Mapping):
            raise _error(f"expected a mapping, got {type(payload).__name__}")
        unknown = sorted(payload.keys() - _FIELD_TYPES.keys())
        if unknown:
            raise _error(
                f"unknown fields {unknown}; expected a subset of {sorted(_FIELD_TYPES)}"
            )
        if "kind" not in payload:
            raise _error("missing required field 'kind'", "kind")
        data = dict(payload)
        for name, value in payload.items():
            expected = _FIELD_TYPES[name]
            if type(value) is expected:
                continue
            if type(expected) is tuple:
                if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
                    raise _error(f"must be a list, got {value!r}", name)
                value = data[name] = tuple(value)
                if not all(_has_type(item, expected[0]) for item in value):
                    raise _error(
                        f"must be a list of {expected[0].__name__} values, got {list(value)!r}",
                        name,
                    )
            elif not (_has_type(value, expected) or value is None and name in _NULLABLE):
                raise _error(f"must be {_TYPE_NAMES[expected]}, got {value!r}", name)
        return cls(**data).validate()

    @classmethod
    def from_json(cls, document: str) -> "AnalysisRequest":
        """Parse and validate a JSON request document."""
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as exc:
            raise _error(f"not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def replace(self, **overrides: Any) -> "AnalysisRequest":
        """A copy of this request with the given fields replaced."""
        return replace(self, **overrides)
