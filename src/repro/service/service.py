"""The RiskService: a long-lived request/response front end for the engine.

The ROADMAP's serving workload — heavy pricing traffic against a stable set
of programs and simulated event sets — is wasteful through the one-shot
:class:`~repro.core.engine.AggregateRiskEngine` facade alone: every call
re-lowers the program to an :class:`~repro.core.plan.ExecutionPlan`,
rebuilds the fused loss stack, and (on multicore) republishes the
shared-memory workspace.  :class:`RiskService` amortises all three across
requests:

* it owns one **warm engine** (created once, reused for every request, with
  multicore shared-workspace retention enabled);
* it keeps a content-addressed :class:`~repro.service.cache.PlanCache` of
  lowered plans + fused stacks, keyed by digests of the program contents,
  the YET and the plan-relevant config (:mod:`repro.service.digests`) — a
  warm request skips straight to the kernel pass and is bit-identical to
  the cold one by construction (same plan object, same kernels);
* it resolves declarative :class:`~repro.service.request.AnalysisRequest`
  documents against a registry of named artifacts (programs and YETs) with
  the built-in workload presets as fallback;
* optionally (``result_cache=True`` / ``result_cache_dir=...``) it keeps a
  delta-aware :class:`~repro.service.result_cache.ResultCache` of
  accumulated results: an exact repeat skips the kernel pass entirely, a
  YET extended by appended trials re-prices only the appended range, and a
  program differing in a subset of its layers re-prices only the changed
  stack rows — each served result bit-identical to the cold monolithic run
  by the partial-result merge algebra.
* every ``run``, ``run_many`` and ``sweep``, local or on a fleet of
  workers, takes one path (:meth:`RiskService._handle_run`): the request's
  programs are concatenated into one program — one plan, one result-cache
  entry, derived once per set of base programs and kept — and the service
  looks up, prices the residual the cache cannot answer (a ``sweep`` in
  row-bounded blocks), merges, stores, and splits the answer back per
  program.

Example::

    service = RiskService(EngineConfig(backend="vectorized"))
    service.register_program("renewal", program)
    service.register_yet("renewal", yet)

    response = service.submit({"kind": "run", "program": "renewal"})
    print(response.summary())           # run on vectorized | cold (...) | 0.0312s
    response = service.submit({"kind": "run", "program": "renewal"})
    print(response.cache.hit)           # True — plan and stack reused
    print(service.cache_stats().summary())

(the CLI equivalents are ``are request --json '{...}'`` for one round trip
and ``are serve`` for a warm NDJSON request loop).
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Any, Callable, Dict, List, Mapping, Sequence

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.plan import ExecutionPlan, PlanBuilder
from repro.core.results import EngineResult, ResultAccumulator
from repro.financial.terms import LayerTerms
from repro.parallel.partitioner import WorkloadShape
from repro.portfolio.layer import Layer
from repro.portfolio.pricing import price_program
from repro.portfolio.program import ReinsuranceProgram
from repro.service.cache import CacheStats, PlanCache
from repro.service.digests import config_digest, layer_digest, program_digest, yet_digest
from repro.service.request import AnalysisRequest, RequestValidationError
from repro.service.response import AnalysisResponse, CacheInfo
from repro.service.result_cache import ResultCache, ResultCacheStats
from repro.yet.table import YearEventTable
from repro.ylt.table import YearLossTable

__all__ = ["PreparedSubmission", "RiskService", "candidate_variants"]


def candidate_variants(
    program: ReinsuranceProgram | Layer, n: int
) -> List[ReinsuranceProgram]:
    """N candidate-term variants of a program (the Section IV pricing sweep).

    Variant ``i`` scales every layer's occurrence and aggregate retentions by
    ``1 + 0.25 i`` (variant 0 is the program as written).  The layers' loss
    matrices are shared across variants — only the layer terms differ — so
    a batch over the variants prices them all from one stacked gather,
    building each layer's combined row once.

    Every call builds new layers, whose digests are computed on first read.
    :class:`RiskService` calls it once per ``(base program, n)`` and keeps
    the result, so a repeated ``run_many`` / ``sweep`` request reuses these
    objects and their stored digests.
    """
    program = ReinsuranceProgram.wrap(program)
    if n <= 0:
        raise ValueError(f"variant count must be positive, got {n}")
    variants = []
    for i in range(n):
        scale = 1.0 + 0.25 * i
        layers = [
            layer.with_terms(
                LayerTerms(
                    occurrence_retention=layer.terms.occurrence_retention * scale,
                    occurrence_limit=layer.terms.occurrence_limit,
                    aggregate_retention=layer.terms.aggregate_retention * scale,
                    aggregate_limit=layer.terms.aggregate_limit,
                )
            )
            for layer in program.layers
        ]
        variants.append(ReinsuranceProgram(layers, name=f"{program.name}@retx{scale:.2f}"))
    return variants


@dataclass(frozen=True)
class PreparedSubmission:
    """A validated request whose work is deferred.

    :meth:`RiskService.prepare` validates on the calling thread (the
    serving event loop) and returns this handle; :meth:`execute` does the
    rest — resolution, cache lookups, pricing — and is safe to dispatch to
    a worker thread.
    """

    request: AnalysisRequest
    _execute: Callable[[], "AnalysisResponse"] = field(repr=False)

    def execute(self) -> "AnalysisResponse":
        """Run the deferred heavy half; returns the finalised response."""
        return self._execute()


class _CacheAccounting:
    """Per-request plan-cache bookkeeping (thread-correct by construction).

    The cache's global counters are shared across threads, so a
    before/after delta would attribute another thread's lookups to this
    request; instead every lookup a request performs records itself here.
    """

    __slots__ = ("hits", "misses", "key")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.key = ""

    def record(self, hit: bool, key_prefix: str) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if not self.key:
            self.key = key_prefix

    @property
    def looked_up(self) -> bool:
        return bool(self.hits or self.misses)


class RiskService:
    """Long-lived request/response service over a warm engine and plan cache.

    Parameters
    ----------
    config:
        Engine configuration of the warm engine (ignored when ``engine`` is
        given).
    engine:
        An existing engine to serve from.  Multicore shared-workspace
        retention is enabled on it either way.
    cache_size:
        Maximum number of lowered plans kept warm (LRU), and of resolved
        ``run_many`` / ``sweep`` program sets kept for repeated requests.
    volatility_loading, expense_ratio:
        Pricing parameters applied to every quote the service produces.
    result_cache:
        Delta-aware caching of accumulated results for the ``run``,
        ``run_many`` and ``sweep`` kinds
        (:class:`~repro.service.result_cache.ResultCache`).  ``False``/
        ``None`` disables it (the default — plan caching alone), ``True``
        enables an in-memory cache, or pass a configured instance.  When
        ``result_cache_dir`` is given the cache defaults to enabled with
        that persistent tier.
    result_cache_dir:
        Directory of the result cache's on-disk tier (optional).
    result_cache_size:
        Maximum number of accumulated results kept resident (LRU).
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        engine: AggregateRiskEngine | None = None,
        cache_size: int = 32,
        volatility_loading: float = 0.3,
        expense_ratio: float = 0.15,
        result_cache: "ResultCache | bool | None" = None,
        result_cache_dir: str | os.PathLike | None = None,
        result_cache_size: int = 16,
    ) -> None:
        self.engine = engine if engine is not None else AggregateRiskEngine(config)
        self.engine.retain_shared_workspaces(True)
        self._config_digest = config_digest(self.engine.config)  # config is frozen
        self.cache = PlanCache(cache_size)
        if isinstance(result_cache, ResultCache):
            self.result_cache: ResultCache | None = result_cache
        elif result_cache or (result_cache is None and result_cache_dir is not None):
            self.result_cache = ResultCache(result_cache_size, disk_dir=result_cache_dir)
        else:
            self.result_cache = None
        self.volatility_loading = float(volatility_loading)
        self.expense_ratio = float(expense_ratio)
        self._programs: Dict[str, ReinsuranceProgram] = {}
        self._yets: Dict[str, YearEventTable] = {}
        # Generated preset workloads, LRU-bounded: a long-lived serve loop
        # fed ever-changing seeds must not pin one workload per seed forever.
        self._preset_workloads: "OrderedDict[tuple, Any]" = OrderedDict()
        self._max_preset_workloads = 8
        # A request's resolved program set, keyed by the identity of its
        # base programs (plus the variant count), LRU-bounded like the plan
        # cache: (bases, programs, concatenated program).  The entry holds
        # its bases, so their ids cannot be reused while it lives; a
        # re-registered name is a new object and so a new entry.
        self._program_sets: "OrderedDict[tuple, tuple]" = OrderedDict()
        # The serving layer drives concurrent submits from an executor pool;
        # registry mutation and the preset and program-set LRUs must not
        # race.  Reentrant: _resolve_program -> _preset_workload nests
        # acquisitions.
        self._registry_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Artifact registry
    # ------------------------------------------------------------------ #
    def register_program(self, name: str, program: ReinsuranceProgram | Layer) -> None:
        """Register a program under ``name``; hashes it here, at ingest, so
        no request against it hashes its ELT records."""
        wrapped = ReinsuranceProgram.wrap(program)
        program_digest(wrapped)
        with self._registry_lock:
            self._programs[str(name)] = wrapped

    def register_yet(self, name: str, yet: YearEventTable) -> None:
        """Register a Year Event Table under ``name`` (digested at ingest)."""
        yet_digest(yet)
        with self._registry_lock:
            self._yets[str(name)] = yet

    def register_workload(self, name: str, workload) -> None:
        """Register a generated workload's program and YET under one name."""
        self.register_program(name, workload.program)
        self.register_yet(name, workload.yet)

    def _preset_workload(self, name: str, seed: int | None):
        from repro.workloads.generator import WorkloadGenerator
        from repro.workloads.presets import preset, preset_names

        if name not in preset_names():
            return None
        key = (name, seed)
        with self._registry_lock:
            if key not in self._preset_workloads:
                spec = preset(name)
                if seed is not None:
                    spec = spec.scaled(seed=seed)
                workload = WorkloadGenerator(spec).generate()
                program_digest(workload.program), yet_digest(workload.yet)  # at ingest
                self._preset_workloads[key] = workload
                while len(self._preset_workloads) > self._max_preset_workloads:
                    self._preset_workloads.popitem(last=False)
            self._preset_workloads.move_to_end(key)
            return self._preset_workloads[key]

    def _resolve_program(
        self, name: str, seed: int | None
    ) -> tuple[ReinsuranceProgram, YearEventTable | None]:
        """(program, companion YET) for a registered or preset name."""
        with self._registry_lock:
            if name in self._programs:
                return self._programs[name], self._yets.get(name)
        workload = self._preset_workload(name, seed)
        if workload is not None:
            return workload.program, workload.yet
        raise RequestValidationError(
            f"unknown program {name!r}: not registered and not a workload preset",
            field="program",
        )

    def _resolve_yet(
        self, request: AnalysisRequest, companion: YearEventTable | None
    ) -> YearEventTable:
        if request.yet is not None:
            with self._registry_lock:
                if request.yet in self._yets:
                    return self._yets[request.yet]
            workload = self._preset_workload(request.yet, request.seed)
            if workload is not None:
                return workload.yet
            raise RequestValidationError(
                f"unknown YET {request.yet!r}: not registered and not a workload preset",
                field="yet",
            )
        if companion is None:
            raise RequestValidationError(
                "request names no YET and the program has none registered "
                "under the same name",
                field="yet",
            )
        return companion

    # ------------------------------------------------------------------ #
    # Plan cache plumbing
    # ------------------------------------------------------------------ #
    def _cached_plan(
        self, key: tuple, builder, acct: _CacheAccounting, key_prefix: str
    ) -> tuple[ExecutionPlan, float]:
        """(plan, lowering seconds) — zero-ish seconds on a warm hit."""
        started = time.perf_counter()
        plan, hit = self.cache.get_or_build(key, builder)
        acct.record(hit, key_prefix)
        return plan, time.perf_counter() - started

    def _program_key(
        self, kind: str, programs: Sequence[ReinsuranceProgram], yet: YearEventTable,
        *extras: Any,
    ) -> tuple:
        return (
            kind,
            tuple(program_digest(program) for program in programs),
            yet_digest(yet),
            self._config_digest,
            *extras,
        )

    def cache_stats(self) -> CacheStats:
        """Plan-cache counters for monitoring/benchmarks."""
        return self.cache.stats

    def result_cache_stats(self) -> ResultCacheStats | None:
        """Result-cache counters (``None`` when the cache is disabled)."""
        if self.result_cache is None:
            return None
        return self.result_cache.stats

    def close(self) -> None:
        """Release cached plans and any retained shared-memory workspaces."""
        self.cache.clear()
        if self.result_cache is not None:
            self.result_cache.clear()
        self.engine.release_workspaces()

    def __enter__(self) -> "RiskService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Request dispatch
    # ------------------------------------------------------------------ #
    def submit(
        self, request: AnalysisRequest | Mapping[str, Any] | str
    ) -> AnalysisResponse:
        """Validate, resolve and execute one request; returns the response.

        Accepts an :class:`AnalysisRequest`, a plain dict, or a JSON string
        (the three forms ``are request``/``are serve`` and Python callers
        use interchangeably).
        """
        return self.prepare(request).execute()

    def prepare(
        self, request: AnalysisRequest | Mapping[str, Any] | str
    ) -> PreparedSubmission:
        """Validate a submission now; defer everything else to ``execute``.

        Parsing and validation run on the calling thread, so a malformed
        document fails before anything is scheduled.  The returned handle's
        :meth:`~PreparedSubmission.execute` resolves the artifacts, consults
        the caches and prices — the same for every kind.  The asyncio
        server validates on its event loop and ships ``execute`` to its
        executor pool; every handler is thread-safe behind the registry,
        plan-cache and result-cache locks.
        """
        if isinstance(request, str):
            request = AnalysisRequest.from_json(request)
        elif isinstance(request, Mapping):
            request = AnalysisRequest.from_dict(request)
        else:
            request.validate()

        started = time.perf_counter()
        acct = _CacheAccounting()
        handler = {
            "run": self._handle_run,
            "run_many": self._handle_run,
            "sweep": self._handle_run,
            "uncertainty": self._handle_uncertainty,
        }[request.kind]

        def execute() -> AnalysisResponse:
            return self._finalize(request, handler(request, acct), acct, started)

        return PreparedSubmission(request=request, _execute=execute)

    def _finalize(
        self,
        request: AnalysisRequest,
        response: AnalysisResponse,
        acct: _CacheAccounting,
        started: float,
    ) -> AnalysisResponse:
        """Attach cache accounting, total wall time and backend identity."""
        cache = None
        if acct.looked_up:
            cache = CacheInfo(
                hit=acct.misses == 0,
                hits=acct.hits,
                misses=acct.misses,
                key=acct.key,
            )
        timings = dict(response.timings)
        timings["total"] = time.perf_counter() - started
        return AnalysisResponse(
            request=request,
            results=response.results,
            quotes=response.quotes,
            bands=response.bands,
            cache=cache,
            timings=timings,
            backend=self.engine.backend_name,
            details=response.details,
        )

    # ------------------------------------------------------------------ #
    # Kind handlers (return partially-filled responses; submit finalises)
    # ------------------------------------------------------------------ #
    def _handle_run(
        self, request: AnalysisRequest, acct: _CacheAccounting
    ) -> AnalysisResponse:
        """The one pricing path of ``run``, ``run_many`` and ``sweep``: look
        up, price the residual, merge, store.

        A request's programs are priced as one: concatenated into a single
        program, they take one result-cache entry and one plan, whose
        layers sharing ELT objects (term variants) share their stack rows.
        The result cache answers what it can (an exact repeat, a trial
        prefix, or every row but the changed ones); only the residual is
        priced — on the warm engine through the plan cache, or on the
        request's fleet; a ``sweep`` in blocks of at most
        ``max_rows_per_block`` rows — and merged over the cached blocks by
        column or row placement, bit-identical to a cold run of each
        program.  The answer is split back per program last.
        """
        programs, program, yet = self._request_programs(request)
        key = self._program_key("run", [program], yet, request.shards)
        cache = self.result_cache if request.result_cache else None

        # Look up, and decide the residual: the part the cache cannot answer.
        info, seed, changed = {}, None, []
        residual, ranges = program, [None]  # None: every trial
        if cache is not None:
            # request.shards is scheduling, not semantics (merged results
            # are bit-identical for every shard count), but folding it into
            # the config component keeps entries one-to-one with plan keys.
            rc_config = f"{key[3]}|shards={request.shards}"
            row_digests = tuple(layer_digest(layer) for layer in program.layers)
            match = cache.lookup(
                program_digest=key[1][0], config_digest=rc_config, yet=yet,
                row_digests=row_digests,
            )
            info, seed = {"status": match.status}, match.accumulator
            if match.status == "exact":
                ranges, info["repriced_trials"] = [], 0
            elif match.status == "append":
                ranges = seed.missing_ranges()
                repriced = sum(gap.size for gap in ranges)
                info.update(repriced_trials=repriced, cached_trials=yet.n_trials - repriced)
            elif match.status == "rows" and self.engine.config.record_max_occurrence != all(
                partial.max_occurrence is not None for partial in seed.partials
            ):
                # The sibling and a delta run would disagree on carrying
                # max-occurrence losses (e.g. the sibling predates occurrence
                # tracking), so no composition can equal a cold run.
                info, seed = {"status": "rows_fallback", "reason": "occurrence_mismatch"}, None
            elif match.status == "rows":
                changed = list(match.changed_rows)
                residual = program.subset(changed)
                info.update(repriced_rows=changed, cached_rows=program.n_layers - len(changed))

        # Cut the residual into row blocks (a sweep's memory bound).
        bound = request.max_rows_per_block if request.kind == "sweep" else 0
        blocks = [residual]
        if 0 < bound < residual.n_layers:
            blocks = [
                residual.subset(range(start, min(start + bound, residual.n_layers)))
                for start in range(0, residual.n_layers, bound)
            ]

        # Price the residual; only this step knows which executor runs it.
        lower_seconds, plans = 0.0, [None] * len(blocks)
        if ranges and not request.workers:
            for index, block in enumerate(blocks):
                sub_key = key if block is program else self._program_key(
                    "run", [block], yet, request.shards
                )
                plans[index], seconds = self._cached_plan(
                    sub_key,
                    lambda block=block: PlanBuilder.from_program(
                        block, yet, n_shards=request.shards
                    ),
                    acct,
                    sub_key[1][0][:12],
                )
                lower_seconds += seconds
        executed = time.perf_counter()
        priced: List[EngineResult] = []
        priced_blocks: List[dict] = []
        for trials in ranges:
            parts = []
            for block, plan in zip(blocks, plans):
                if request.workers:
                    part = self.engine.run_distributed(
                        block, yet, request.workers, request.shards, trials=trials
                    )
                else:
                    part = self.engine.run_plan(plan if trials is None else plan.restrict(trials))
                parts.append(part)
                priced_blocks.append({
                    "rows": block.n_layers,
                    "n_unique_rows": part.details["plan"]["n_unique_rows"],
                    "wall_seconds": part.wall_seconds,
                })
            priced.append(parts[0] if len(parts) == 1 else replace(
                parts[0],
                ylt=reduce(YearLossTable.merged_with, (part.ylt for part in parts)),
                wall_seconds=sum(part.wall_seconds for part in parts),
                workload_shape=replace(parts[0].workload_shape, n_layers=residual.n_layers),
            ))
        execute_seconds = time.perf_counter() - executed
        details = {}
        if request.workers and priced:
            details["fleet"] = dict(priced[-1].details["fleet"])
        if request.kind == "sweep":
            details["blocks"] = priced_blocks

        # Merge: column placement for trial gaps, row placement for rows.
        result, metrics = (priced[0] if priced else None), None
        if cache is not None:
            if seed is None:
                accumulator = ResultAccumulator(
                    program.n_layers, yet.n_trials, row_names=program.layer_names
                ).add_result(result)
            elif changed:
                accumulator = seed.with_rows(changed, result)
            else:
                accumulator = seed
                for part in priced:
                    accumulator.add_result(part)
            if seed is not None:
                result = accumulator.finalize(
                    self.engine.backend_name,
                    wall_seconds=execute_seconds,
                    workload_shape=WorkloadShape(
                        yet.n_trials, max(yet.mean_events_per_trial, 1e-9),
                        max(int(round(program.mean_elts_per_layer)), 1), program.n_layers,
                    ),
                    details={"result_cache": dict(info)},
                )
            if info["status"] != "exact":
                cache.store(
                    program_digest=key[1][0], yet_digest=key[2], config_digest=rc_config,
                    accumulator=accumulator, row_digests=row_digests,
                )
            # Quote from the entry's metrics memo; ``quoted_rows`` counts the
            # rows this answer computed (a row delta reuses its sibling's).
            quoted_rows = 0
            if request.quote:
                metrics, quoted_rows = accumulator.risk_metrics(seed if changed else None, changed)
            info.update(quoted_rows=quoted_rows, stats=cache.stats.to_dict())
            details["result_cache"] = info

        # Split the one answer back per program.
        results, per_program = (result,), [metrics]
        if len(programs) > 1:
            cuts = np.cumsum([0] + [each.n_layers for each in programs]).tolist()
            spans = list(zip(cuts, cuts[1:]))
            results = tuple(result.for_layer_subset(range(a, b)) for a, b in spans)
            per_program = [metrics and metrics[a:b] for a, b in spans]
        quotes = ()
        if request.quote:
            quotes = tuple(
                price_program(
                    each,
                    each_result.ylt,
                    volatility_loading=self.volatility_loading,
                    expense_ratio=self.expense_ratio,
                    metrics=each_metrics,
                )
                for each, each_result, each_metrics in zip(programs, results, per_program)
            )
        return AnalysisResponse(
            request=request,
            results=results,
            quotes=quotes,
            timings={"lower": lower_seconds, "execute": execute_seconds},
            details=details,
        )

    def _request_programs(
        self, request: AnalysisRequest
    ) -> tuple[Sequence[ReinsuranceProgram], ReinsuranceProgram, YearEventTable]:
        """A request's programs, in order — its one ``program``, its explicit
        ``programs``, or ``variants`` of its ``program`` — their concatenation
        (the program itself when there is one), and their YET.

        A set of more than one program, or of variants, is derived once per
        ``(base programs, variant count)`` and kept (LRU, ``cache_size``
        entries): a repeated request reuses the same program objects and
        their stored digests, so it builds no layer and hashes nothing.
        """
        bases: List[ReinsuranceProgram] = []
        companion: YearEventTable | None = None
        for name in request.programs or (request.program,):
            program, program_yet = self._resolve_program(name, request.seed)
            bases.append(program)
            companion = companion if companion is not None else program_yet
        yet = self._resolve_yet(request, companion)
        variants = request.variants if request.kind != "run" and not request.programs else 0
        if len(bases) == 1 and not variants:
            return bases, bases[0], yet

        key = (tuple(map(id, bases)), variants)
        with self._registry_lock:
            entry = self._program_sets.get(key)
            if entry is not None:
                self._program_sets.move_to_end(key)
        if entry is None:
            programs = tuple(candidate_variants(bases[0], variants) if variants else bases)
            program = programs[0] if len(programs) == 1 else ReinsuranceProgram(
                [layer for each in programs for layer in each.layers],
                name="+".join(each.name for each in programs),
            )
            program_digest(program)  # outside the lock; stored on the program
            with self._registry_lock:
                # A racing first request may have stored the set meanwhile:
                # every caller answers from the one that was kept.
                entry = self._program_sets.setdefault(key, (tuple(bases), programs, program))
                self._program_sets.move_to_end(key)
                while len(self._program_sets) > self.cache.maxsize:
                    self._program_sets.popitem(last=False)
        _, programs, program = entry
        return programs, program, yet

    def _handle_uncertainty(
        self, request: AnalysisRequest, acct: _CacheAccounting
    ) -> AnalysisResponse:
        from repro.uncertainty.analysis import SecondaryUncertaintyAnalysis
        from repro.uncertainty.table import LossDistributionFamily, UncertainEventLossTable
        from repro.uncertainty.analysis import UncertainLayer

        base_program, companion = self._resolve_program(request.program, request.seed)
        try:
            family = LossDistributionFamily(request.family)
        except ValueError as exc:
            raise RequestValidationError(
                f"unknown distribution family {request.family!r}", field="family"
            ) from exc
        uncertain_layers = tuple(
            UncertainLayer(
                elts=[
                    UncertainEventLossTable.from_elt(elt, cv=request.cv, family=family)
                    for elt in layer.elts
                ],
                terms=layer.terms,
                name=layer.name,
            )
            for layer in base_program.layers
        )
        yet = self._resolve_yet(request, companion)

        analysis = SecondaryUncertaintyAnalysis(
            uncertain_layers, config=self.engine.config, engine=self.engine
        )
        executed = time.perf_counter()
        bands = analysis.run_batched(
            yet,
            request.replications,
            rng=request.seed,
            return_periods=request.return_periods,
            tvar_levels=request.tvar_levels,
            method=request.method,
            replication_block=request.replication_block or None,
            trial_shards=request.shards,
        )
        # Price the expected (mean-loss) program through the cached plan
        # path: the expected program is rebuilt per request, but its content
        # digest is stable, so warm requests reuse the lowered plan.
        expected = analysis.expected_program()
        key = self._program_key("run", [expected], yet, request.shards)
        plan, lower_seconds = self._cached_plan(
            key,
            lambda: PlanBuilder.from_program(expected, yet, n_shards=request.shards),
            acct,
            key[1][0][:12],
        )
        result = self.engine.run_plan(plan)
        execute_seconds = time.perf_counter() - executed - lower_seconds
        quotes = ()
        if request.quote:
            quotes = (
                price_program(
                    expected,
                    result.ylt,
                    volatility_loading=self.volatility_loading,
                    expense_ratio=self.expense_ratio,
                    uncertainty=bands,
                ),
            )
        return AnalysisResponse(
            request=request,
            results=(result,),
            quotes=quotes,
            bands=bands,
            timings={"lower": lower_seconds, "execute": max(execute_seconds, 0.0)},
        )
