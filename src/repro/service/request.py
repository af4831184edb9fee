"""The declarative analysis-request schema.

An :class:`AnalysisRequest` is a plain, serializable description of one unit
of work for the :class:`~repro.service.service.RiskService` — the
request/response form of the engine's public workloads::

    kind="run"          one program over one YET          (engine.run)
    kind="run_many"     many programs / term variants     (one concatenated run)
    kind="run_stacked"  precomputed term-netted rows      (engine.run_stacked)
    kind="sweep"        run_many priced in row blocks     (one concatenated run)
    kind="uncertainty"  replication-banded metrics/quote  (SecondaryUncertaintyAnalysis)

Requests reference their inputs *by name*: a name resolves against the
service's artifact registry (programs, YETs, stacks registered by the
caller) and falls back to the built-in workload presets
(:mod:`repro.workloads.presets`), so a request is pure data — it travels as
a dict or JSON document (``to_dict``/``from_dict``, ``to_json``/``from_json``)
and two processes that registered the same artifacts mean the same thing by
the same request.

Validation is eager and total: :meth:`AnalysisRequest.validate` (called by
the service before dispatch) raises :class:`RequestValidationError` naming
the offending field, and ``from_dict`` rejects unknown keys outright so a
misspelled option can never be silently ignored.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping

__all__ = ["AnalysisRequest", "REQUEST_KINDS", "RequestValidationError"]

#: The request kinds the service dispatches.
REQUEST_KINDS: tuple[str, ...] = (
    "run",
    "run_many",
    "run_stacked",
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
    stack:
        Name of a registered stack (``run_stacked`` only).
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
        Metric axes of the ``uncertainty`` kind.
    seed:
        RNG seed of the ``uncertainty`` kind (``None`` = nondeterministic)
        and of preset workload generation (``None`` = the preset's seed).
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
        request across (not ``run_stacked`` or ``uncertainty``).  The shard
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
    stack: str | None = None
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
        if any(rp <= 0 for rp in self.return_periods):
            raise _error("return periods must be positive", "return_periods")
        if any(not 0.0 < level < 1.0 for level in self.tvar_levels):
            raise _error("TVaR levels must lie in (0, 1)", "tvar_levels")
        if self.workers:
            if self.kind in ("run_stacked", "uncertainty"):
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
        if self.kind == "run_stacked":
            if not self.stack:
                raise _error("kind 'run_stacked' requires a stack name", "stack")
            if not self.yet:
                raise _error(
                    "kind 'run_stacked' requires an explicit YET name "
                    "(a stack has no preset to derive one from)",
                    "yet",
                )
        elif self.stack:
            raise _error(f"kind {self.kind!r} does not take a stack", "stack")
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

        Unknown keys raise :class:`RequestValidationError` — a misspelled
        option must fail loudly, not fall back to a default.
        """
        if not isinstance(payload, Mapping):
            raise _error(f"expected a mapping, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise _error(f"unknown fields {unknown}; expected a subset of {sorted(known)}")
        if "kind" not in payload:
            raise _error("missing required field 'kind'", "kind")
        data = dict(payload)
        for name in ("programs", "return_periods", "tvar_levels", "workers"):
            if name in data:
                value = data[name]
                if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
                    raise _error(f"must be a list, got {value!r}", name)
                data[name] = tuple(value)
        try:
            request = cls(**data)
        except TypeError as exc:
            raise _error(str(exc)) from exc
        return request.validate()

    def to_json(self, indent: int | None = None) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

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
