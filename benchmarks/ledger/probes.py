"""Per-layer probes: each layer's public calls timed in isolation.

Every traced run executes the same probes on the same fixed shapes, whatever
workload it traces, so a layer metric means the same thing in every row of the
ledger.  Inputs come from the seed.  A probe reports the median of a few
repetitions; rates are in the paper's unit (stack-row lookups per second) and
anything derived from array sizes rather than measured is labelled *computed*
in :data:`PER_LAYER`.
"""

from __future__ import annotations

import json
import socket
import statistics
import time
from typing import Any, Callable

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.native.build import NativeKernels, ensure_built
from repro.core.phases import ALL_PHASES
from repro.core.plan import ExecutionPlan, PlanBuilder
from repro.core.results import PartialResult, ResultAccumulator
from repro.distributed.fleet import WorkerClient
from repro.distributed.worker import FleetWorker
from repro.elt.combined import LayerLossMatrix
from repro.parallel.partitioner import TrialRange
from repro.portfolio.layer import Layer
from repro.portfolio.pricing import price_program
from repro.portfolio.program import ReinsuranceProgram
from repro.service import digests
from repro.service.cache import PlanCache
from repro.service.request import AnalysisRequest
from repro.service.result_cache import ResultCache
from repro.service.server import ServeClient, ServerThread
from repro.service.service import RiskService, candidate_variants
from repro.yet.io import YetShardReader, save_yet_store
from repro.yet.table import YearEventTable
from repro.ylt.ep_curve import aep_curve
from repro.ylt.metrics import compute_risk_metrics

from benchmarks.ledger import inputs
from benchmarks.ledger.env import WorkDir, shm_segments
from benchmarks.ledger.inputs import BookShape
from benchmarks.ledger.tracer import LAYERS

#: The probe book: small enough to generate in well under a second.
PROBE_BOOK = BookShape(n_layers=16, elts_per_layer=8, n_trials=200,
                       events_per_trial=40, catalog_size=40_000)
#: Deep kernel probe: one stack row over a long YET, paper-scale catalog.
DEEP = {"rows": 1, "catalog": 1_000_000, "trials": 2_000, "events": 1_000}
#: Wide kernel probe: many rows over few unique stack rows, short trial axis
#: (batch_wide's shape: the rows x events scratch stays under malloc's mmap threshold).
WIDE = {"rows": 128, "unique": 8, "catalog": 200_000, "trials": 150, "events": 100}
#: Bytes copied / gathered by the host bandwidth probes.
HOST_BYTES = 64 * 1024 * 1024

#: ``(name, unit, better)`` of every per-layer metric, in print order.  Names
#: ending in a layer of :data:`~benchmarks.ledger.tracer.LAYERS` after
#: ``trace.share.`` come from the traced replay; the rest from the probes or
#: (cache counters, ``core.lookups_per_s``) from the traced workload itself.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("workloads.generate_s", "s", "lower"),
    ("yet.trial_window_us", "us", "lower"),
    ("yet.store_shard_read_ms", "ms", "lower"),
    ("yet.bytes_per_lookup", "B", "lower"),                    # computed
    ("portfolio.loss_matrix_ms", "ms", "lower"),
    ("portfolio.loss_matrix_bytes", "B", "lower"),
    ("elt.combined_net_ms", "ms", "lower"),
    ("core.plan.lower_us", "us", "lower"),
    ("core.plan.lower_many_us", "us", "lower"),
    ("core.plan.stack_build_ms", "ms", "lower"),
    ("core.plan.stack_f32_ms", "ms", "lower"),
    ("core.plan.stack_bytes", "B", "lower"),
    ("core.lookups_per_s", "1/s", "higher"),                   # derived: ops/s x lookups/op
    ("core.kernels.deep_lookups_per_s", "1/s", "higher"),
    ("core.kernels.wide_lookups_per_s", "1/s", "higher"),
    ("core.kernels.phase_event_fetch_share", "ratio", "lower"),
    ("core.kernels.phase_elt_lookup_share", "ratio", "lower"),
    ("core.kernels.phase_financial_terms_share", "ratio", "lower"),
    ("core.kernels.phase_layer_terms_share", "ratio", "lower"),
    ("core.kernels.gather_gb_per_s", "GB/s", "higher"),        # computed bytes / measured time
    ("core.kernels.scratch_bytes", "B", "lower"),              # computed
    ("core.native.deep_lookups_per_s", "1/s", "higher"),
    ("core.native.wide_lookups_per_s", "1/s", "higher"),
    ("core.native.deep_lookups_per_s_1t", "1/s", "higher"),
    ("core.native.scaling_eff_2t", "ratio", "higher"),
    ("core.native.f32_deep_lookups_per_s", "1/s", "higher"),
    ("core.native.build_s", "s", "lower"),
    ("core.native.load_ms", "ms", "lower"),
    ("core.native.fallback_count", "count", "lower"),
    ("core.chunked.deep_lookups_per_s", "1/s", "higher"),
    ("core.multicore.deep_lookups_per_s", "1/s", "higher"),
    ("core.sequential.lookups_per_s", "1/s", "higher"),
    ("parallel.shm_leaked", "count", "lower"),
    ("core.results.accumulate_ms", "ms", "lower"),
    ("core.results.finalize_ms", "ms", "lower"),
    ("core.results.split_ms", "ms", "lower"),
    ("core.results.partial_to_bytes_ms", "ms", "lower"),
    ("core.results.partial_from_bytes_ms", "ms", "lower"),
    ("core.results.partial_bytes", "B", "lower"),
    ("ylt.risk_metrics_ms", "ms", "lower"),
    ("ylt.ep_curve_ms", "ms", "lower"),
    ("portfolio.quote_ms", "ms", "lower"),
    ("service.digests.program_cold_ms", "ms", "lower"),
    ("service.digests.yet_cold_ms", "ms", "lower"),
    ("service.digests.memo_us", "us", "lower"),
    ("service.digests.hash_gb_per_s", "GB/s", "higher"),
    ("service.cache.hit_us", "us", "lower"),
    ("service.cache.hit_rate", "ratio", "higher"),
    ("service.result_cache.lookup_exact_ms", "ms", "lower"),
    ("service.result_cache.lookup_append_ms", "ms", "lower"),
    ("service.result_cache.lookup_rows_ms", "ms", "lower"),
    ("service.result_cache.store_ms", "ms", "lower"),
    ("service.result_cache.disk_store_ms", "ms", "lower"),
    ("service.result_cache.disk_load_ms", "ms", "lower"),
    ("service.result_cache.exact_hits", "count", "higher"),
    ("service.result_cache.append_hits", "count", "higher"),
    ("service.result_cache.row_hits", "count", "higher"),
    ("service.result_cache.misses", "count", "lower"),
    ("service.result_cache.evictions", "count", "lower"),
    ("service.result_cache.repriced_trial_share", "ratio", "lower"),
    ("service.request.parse_us", "us", "lower"),
    ("service.service.prepare_ms", "ms", "lower"),
    ("service.service.path_cold_ms", "ms", "lower"),
    ("service.service.path_plan_warm_ms", "ms", "lower"),
    ("service.service.path_exact_ms", "ms", "lower"),
    ("service.service.path_rows_ms", "ms", "lower"),
    ("service.service.path_append_ms", "ms", "lower"),
    ("service.service.path_run_many_ms", "ms", "lower"),
    ("service.response.serialise_us", "us", "lower"),
    ("service.server.ping_rtt_us", "us", "lower"),
    ("service.server.overhead_ms", "ms", "lower"),
    ("service.server.http_submit_ms", "ms", "lower"),
    ("service.server.rejected", "count", "lower"),
    ("service.server.processing_p50_ms", "ms", "lower"),
    ("service.server.processing_p99_ms", "ms", "lower"),
    ("distributed.fleet_run_ms", "ms", "lower"),
    ("distributed.shard_roundtrip_ms", "ms", "lower"),
    ("distributed.bytes_shipped", "B", "lower"),
    ("distributed.retries", "count", "lower"),
    ("host.nproc", "count", "higher"),
    ("host.memcpy_gb_per_s", "GB/s", "higher"),
    ("host.random_gather_gb_per_s", "GB/s", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
) + tuple((f"trace.share.{layer}", "ratio", "lower") for layer in LAYERS)


def median_seconds(fn: Callable[[], Any], repeats: int = 5, warmup: int = 1) -> float:
    """Median wall seconds of ``fn()`` over ``repeats`` calls after ``warmup``."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def median_fresh(make: Callable[[int], Any], fn: Callable[[Any], Any], repeats: int = 3) -> float:
    """Median seconds of ``fn(make(i))``, timing only ``fn`` (cold-path probes:
    every repetition gets a fresh, never-seen input)."""
    samples = []
    for index in range(repeats):
        subject = make(index)
        started = time.perf_counter()
        fn(subject)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


class Probes:
    """Builds the probe inputs once and runs the probe groups."""

    def __init__(self, seed: int, work: WorkDir, smoke: bool = False) -> None:
        self.seed = seed
        self.work = work
        self.repeats = 1 if smoke else 5
        self.scale = 20 if smoke else 1
        self.metrics: dict[str, float] = {}
        shape = PROBE_BOOK.scaled(10) if smoke else PROBE_BOOK
        started = time.perf_counter()
        self.book = inputs.generate_book(seed, shape)
        self.metrics["workloads.generate_s"] = time.perf_counter() - started
        inputs.warm_matrices(self.book.program)
        deep, wide = DEEP, WIDE
        self.deep_yet = inputs.uniform_yet(
            seed, deep["trials"] // self.scale, deep["events"], deep["catalog"] // self.scale)
        self.deep_plan = PlanBuilder.from_stack(
            inputs.random_stack(seed, deep["rows"], deep["catalog"] // self.scale),
            inputs.spread_terms(deep["rows"]), self.deep_yet)
        self.deep_lookups = deep["rows"] * self.deep_yet.n_occurrences
        wide_yet = inputs.uniform_yet(
            seed + 1, max(wide["trials"] // self.scale, 10), wide["events"],
            wide["catalog"] // self.scale)
        self.wide_plan = ExecutionPlan(
            wide_yet, inputs.spread_terms(wide["rows"]),
            stack=inputs.random_stack(seed + 1, wide["unique"], wide["catalog"] // self.scale),
            row_map=np.arange(wide["rows"]) % wide["unique"], source="stacked")
        self.wide_lookups = wide["rows"] * wide_yet.n_occurrences

    def _t(self, fn: Callable[[], Any], repeats: int | None = None, warmup: int = 1) -> float:
        return median_seconds(fn, repeats or self.repeats, warmup)

    def run(self, stack_bytes: int) -> dict[str, float]:
        for group in (self.yet, self.portfolio, self.plan, self.kernels, self.native,
                      self.other_backends, self.results, self.ylt, self.digests,
                      self.caches, self.service, self.server, self.distributed):
            group()
        self.host(stack_bytes)
        return self.metrics

    # ------------------------------------------------------------------ #
    def yet(self) -> None:
        m, yet = self.metrics, self.deep_yet
        half = yet.n_trials // 2
        m["yet.trial_window_us"] = self._t(lambda: yet.trial_window(half // 2, half), 200) * 1e6
        store = save_yet_store(yet, self.work.sub("yet-store"))
        shard = TrialRange(0, max(yet.n_trials // 4, 1))
        with YetShardReader(store) as reader:
            m["yet.store_shard_read_ms"] = self._t(lambda: reader.shard(shard)) * 1e3
        rows, events, trials = DEEP["rows"], yet.n_occurrences, yet.n_trials
        # ids read + losses gathered + year-loss and max-occurrence outputs
        m["yet.bytes_per_lookup"] = (8 * events + 8 * rows * events + 16 * rows * trials) / (
            rows * events)

    def portfolio(self) -> None:
        m, layer = self.metrics, self.book.program.layers[0]
        m["portfolio.loss_matrix_ms"] = median_fresh(
            lambda _: Layer(layer.elts, layer.terms), lambda fresh: fresh.loss_matrix(),
            self.repeats) * 1e3
        m["portfolio.loss_matrix_bytes"] = float(layer.loss_matrix().memory_bytes)
        m["elt.combined_net_ms"] = median_fresh(
            lambda _: LayerLossMatrix(layer.elts), lambda matrix: matrix.combined_net_losses(),
            self.repeats) * 1e3

    def plan(self) -> None:
        m, program, yet = self.metrics, self.book.program, self.book.yet
        m["core.plan.lower_us"] = self._t(lambda: PlanBuilder.from_program(program, yet), 50) * 1e6
        variants = candidate_variants(program, 8)
        m["core.plan.lower_many_us"] = self._t(
            lambda: PlanBuilder.from_programs(variants, yet), 20) * 1e6

        def cold_plan(_: int) -> ExecutionPlan:  # fresh layers: no cached dense matrix
            fresh = [Layer(layer.elts, layer.terms, name=layer.name) for layer in program.layers]
            return PlanBuilder.from_program(ReinsuranceProgram(fresh), yet)

        m["core.plan.stack_build_ms"] = median_fresh(cold_plan, lambda p: p.stack(), 3) * 1e3

        def built_plan(_: int) -> ExecutionPlan:
            plan = PlanBuilder.from_program(program, yet)
            plan.stack()
            return plan

        m["core.plan.stack_f32_ms"] = median_fresh(built_plan, lambda p: p.stack_f32(), 3) * 1e3
        m["core.plan.stack_bytes"] = float(built_plan(0).stack().nbytes)

    def _rate(self, config: EngineConfig, plan: ExecutionPlan, lookups: int,
              repeats: int | None = None) -> float:
        engine = AggregateRiskEngine(config)

        def run() -> None:
            result = engine.run_plan(plan)
            if result.details.get("native_fallback"):
                self.native_fallbacks += 1

        try:
            return lookups / self._t(run, repeats)
        finally:
            engine.close()

    def kernels(self) -> None:
        m = self.metrics
        self.native_fallbacks = 0
        deep_rate = self._rate(EngineConfig(), self.deep_plan, self.deep_lookups)
        m["core.kernels.deep_lookups_per_s"] = deep_rate
        m["core.kernels.wide_lookups_per_s"] = self._rate(
            EngineConfig(), self.wide_plan, self.wide_lookups, 3)
        m["core.kernels.gather_gb_per_s"] = deep_rate * 16 / 1e9  # 8 B id + 8 B loss per lookup
        m["core.kernels.scratch_bytes"] = float(self.wide_lookups * 8)
        # Fig. 6b: the paper's per-layer algorithm (per-ELT gather, financial
        # terms per event), which the fused path hoists out of the trial loop.
        layer = Layer(self.book.program.layers[0].elts + self.book.program.layers[1].elts[:7],
                      self.book.program.layers[0].terms)
        yet = inputs.uniform_yet(self.seed + 2, max(200 // self.scale, 10), 1_000,
                                 layer.catalog_size)
        breakdown = AggregateRiskEngine(
            EngineConfig(record_phases=True, fused_layers=False)).run(layer, yet).phase_breakdown
        for phase in ALL_PHASES:
            m[f"core.kernels.phase_{phase}_share"] = breakdown.fraction(phase)

    def native(self) -> None:
        m = self.metrics
        native = EngineConfig(backend="native")
        m["core.native.deep_lookups_per_s"] = self._rate(native, self.deep_plan, self.deep_lookups)
        m["core.native.wide_lookups_per_s"] = self._rate(native, self.wide_plan, self.wide_lookups)
        one = self._rate(native.replace(native_threads=1), self.deep_plan, self.deep_lookups)
        two = self._rate(native.replace(native_threads=2), self.deep_plan, self.deep_lookups)
        m["core.native.deep_lookups_per_s_1t"] = one
        m["core.native.scaling_eff_2t"] = two / (2.0 * one)  # t1 / (2 t2)
        m["core.native.f32_deep_lookups_per_s"] = self._rate(
            native.replace(dtype="float32"), self.deep_plan, self.deep_lookups)
        self.work.fresh_native_cache()
        started = time.perf_counter()
        library = ensure_built()
        m["core.native.build_s"] = time.perf_counter() - started
        m["core.native.load_ms"] = median_seconds(lambda: NativeKernels(library), 3, 0) * 1e3
        m["core.native.fallback_count"] = float(self.native_fallbacks)

    def other_backends(self) -> None:
        m = self.metrics
        m["core.chunked.deep_lookups_per_s"] = self._rate(
            EngineConfig(backend="chunked"), self.deep_plan, self.deep_lookups, 3)
        before = shm_segments()
        m["core.multicore.deep_lookups_per_s"] = self._rate(
            EngineConfig(backend="multicore", n_workers=2), self.deep_plan, self.deep_lookups, 3)
        m["parallel.shm_leaked"] = float(shm_segments() - before)
        layer = Layer(self.book.program.layers[0].elts[:3], self.book.program.layers[0].terms)
        tiny = self.book.yet.slice_trials(0, 10)
        seconds = self._t(lambda: AggregateRiskEngine(
            EngineConfig(backend="sequential")).run(layer, tiny), 3)
        m["core.sequential.lookups_per_s"] = layer.n_elts * tiny.n_occurrences / seconds

    def results(self) -> None:
        m = self.metrics
        rng = np.random.default_rng([self.seed, 0x4E5])
        rows, trials, shards = 64, 8_000 // self.scale, 8
        losses = rng.gamma(2.0, 1.0e5, size=(rows, trials))
        step = trials // shards
        partials = [PartialResult(TrialRange(i * step, (i + 1) * step),
                                  losses[:, i * step:(i + 1) * step].copy(),
                                  losses[:, i * step:(i + 1) * step].copy())
                    for i in range(shards)]

        def accumulate() -> ResultAccumulator:
            accumulator = ResultAccumulator(rows, shards * step)
            for partial in partials:
                accumulator.add(partial)
            accumulator.year_losses()
            return accumulator

        m["core.results.accumulate_ms"] = self._t(accumulate) * 1e3
        accumulator = accumulate()
        m["core.results.finalize_ms"] = self._t(lambda: accumulator.finalize("vectorized")) * 1e3
        variants = candidate_variants(self.book.program, 8)
        plan = PlanBuilder.from_programs(variants, self.book.yet)
        combined = AggregateRiskEngine(EngineConfig()).run_plan(plan)
        m["core.results.split_ms"] = self._t(lambda: plan.split_result(combined)) * 1e3
        whole = PartialResult(TrialRange(0, shards * step), losses[:, :shards * step],
                              losses[:, :shards * step])
        payload = whole.to_bytes()
        m["core.results.partial_to_bytes_ms"] = self._t(whole.to_bytes) * 1e3
        m["core.results.partial_from_bytes_ms"] = self._t(
            lambda: PartialResult.from_bytes(payload)) * 1e3
        m["core.results.partial_bytes"] = float(len(payload))

    def ylt(self) -> None:
        m = self.metrics
        rng = np.random.default_rng([self.seed, 0x717])
        year_losses = rng.gamma(0.5, 1.0e6, size=10_000 // self.scale)
        m["ylt.risk_metrics_ms"] = self._t(lambda: compute_risk_metrics(year_losses)) * 1e3
        m["ylt.ep_curve_ms"] = self._t(lambda: aep_curve(year_losses)) * 1e3
        result = AggregateRiskEngine(EngineConfig()).run(self.book.program, self.book.yet)
        m["portfolio.quote_ms"] = self._t(
            lambda: price_program(self.book.program, result.ylt)) * 1e3

    def digests(self) -> None:
        m, program = self.metrics, self.book.program
        m["service.digests.program_cold_ms"] = median_fresh(
            lambda i: inputs.perturbed_program(program, self.seed, 2_000_000 + i),
            digests.program_digest, 3) * 1e3
        yet = self.deep_yet
        m["service.digests.yet_cold_ms"] = median_fresh(
            lambda _: YearEventTable(yet.event_ids, yet.trial_offsets, yet.catalog_size),
            digests.yet_digest, 3) * 1e3
        m["service.digests.memo_us"] = self._t(lambda: digests.program_digest(program), 50) * 1e6
        block = np.zeros(HOST_BYTES // 8 // self.scale)
        m["service.digests.hash_gb_per_s"] = block.nbytes / self._t(
            lambda: digests.array_digest(block), 3, 0) / 1e9

    def caches(self) -> None:
        m, program, yet = self.metrics, self.book.program, self.book.yet
        cache = PlanCache()
        plan = PlanBuilder.from_program(program, yet)
        cache.put("key", plan)
        m["service.cache.hit_us"] = self._t(
            lambda: cache.get_or_build("key", lambda: plan), 200) * 1e6

        result = AggregateRiskEngine(EngineConfig()).run_plan(plan)
        rows = tuple(digests.layer_digest(layer) for layer in program.layers)
        ydig = digests.yet_digest(yet)

        def complete() -> ResultAccumulator:
            accumulator = ResultAccumulator.for_plan(plan)
            accumulator.add_result(result, plan.trials)
            return accumulator

        def stored(disk_dir: Any = None) -> ResultCache:
            cache = ResultCache(disk_dir=disk_dir)
            cache.store(program_digest="p", yet_digest=ydig, config_digest="c",
                        accumulator=complete(), row_digests=rows)
            return cache

        warm = stored()
        lookup = {"config_digest": "c", "yet": yet}
        m["service.result_cache.lookup_exact_ms"] = self._t(
            lambda: warm.lookup(program_digest="p", row_digests=rows, **lookup)) * 1e3
        changed = ("changed",) + rows[1:]
        m["service.result_cache.lookup_rows_ms"] = self._t(
            lambda: warm.lookup(program_digest="q", row_digests=changed, **lookup)) * 1e3
        m["service.result_cache.lookup_append_ms"] = median_fresh(
            lambda _: inputs.extend_yet(yet, 20),
            lambda grown: warm.lookup(program_digest="p", config_digest="c", yet=grown,
                                      row_digests=rows), 3) * 1e3
        m["service.result_cache.store_ms"] = self._t(lambda: stored(), 3) * 1e3
        disk = self.work.sub("result-cache")
        m["service.result_cache.disk_store_ms"] = self._t(lambda: stored(disk), 3) * 1e3
        m["service.result_cache.disk_load_ms"] = self._t(
            lambda: ResultCache(disk_dir=disk).lookup(program_digest="p", row_digests=rows,
                                                      **lookup), 3) * 1e3

    def service(self) -> None:
        m, program, yet = self.metrics, self.book.program, self.book.yet
        with RiskService(result_cache=True) as service:
            service.register_program("book", program)
            service.register_yet("book", yet)
            run = {"kind": "run", "program": "book", "quote": True}
            m["service.request.parse_us"] = self._t(
                lambda: AnalysisRequest.from_dict(run), 200) * 1e6
            nocache = {**run, "result_cache": False}
            service.submit(run)
            service.submit(nocache)
            m["service.service.prepare_ms"] = self._t(lambda: service.prepare(nocache), 50) * 1e3
            m["service.service.path_plan_warm_ms"] = self._t(lambda: service.submit(nocache)) * 1e3
            m["service.service.path_exact_ms"] = self._t(lambda: service.submit(run)) * 1e3
            response = service.submit(run)
            m["service.response.serialise_us"] = self._t(
                lambda: json.dumps(response.to_dict(), sort_keys=True), 50) * 1e6
            many = {"kind": "run_many", "program": "book", "variants": 8, "quote": True}
            m["service.service.path_run_many_ms"] = self._t(lambda: service.submit(many), 3) * 1e3

            def register(name: str, make: Callable[[int], ReinsuranceProgram]):
                def fresh(index: int) -> dict[str, Any]:
                    service.register_program(name, make(index))
                    service.register_yet(name, yet)
                    return {"kind": "run", "program": name, "quote": True}
                return fresh

            m["service.service.path_cold_ms"] = median_fresh(
                register("cold", lambda i: inputs.perturbed_program(program, self.seed, 3_000_000 + i)),
                service.submit, 3) * 1e3
            m["service.service.path_rows_ms"] = median_fresh(
                register("book", lambda i: inputs.one_layer_change(program, i % program.n_layers,
                                                                   1.5 + 0.1 * i)),
                service.submit, 3) * 1e3
            service.register_program("book", program)
            service.submit(run)

            def grown(index: int) -> dict[str, Any]:
                service.register_yet("book", inputs.extend_yet(yet, 10 * (index + 1)))
                return run

            m["service.service.path_append_ms"] = median_fresh(grown, service.submit, 3) * 1e3

    def server(self) -> None:
        m, program, yet = self.metrics, self.book.program, self.book.yet
        document = {"kind": "run", "program": "book", "quote": False}
        with RiskService(result_cache=True) as service:
            service.register_program("book", program)
            service.register_yet("book", yet)
            service.submit(document)
            in_process = self._t(lambda: json.dumps(service.submit(document).to_dict()), 50)
            with ServerThread(service, max_inflight=2, queue_depth=16) as handle:
                host, port = handle.server.host, handle.server.port
                with ServeClient(host, port) as client:
                    m["service.server.ping_rtt_us"] = self._t(
                        lambda: client.request({"op": "ping"}), 200) * 1e6
                    served = self._t(lambda: client.request(document), 200)
                    m["service.server.overhead_ms"] = (served - in_process) * 1e3
                    m["service.server.http_submit_ms"] = self._t(
                        lambda: _http_submit(host, port, document), 20) * 1e3
                    stats = client.request({"op": "stats"})["stats"]
        m["service.server.rejected"] = float(stats["rejected"])
        m["service.server.processing_p50_ms"] = stats["p50_seconds"] * 1e3
        m["service.server.processing_p99_ms"] = stats["p99_seconds"] * 1e3

    def distributed(self) -> None:
        m, program, yet = self.metrics, self.book.program, self.book.yet
        shipped = [0]
        roundtrips: list[float] = []
        original = WorkerClient.request

        def counted(client: WorkerClient, document: Any, payload: bytes | None = None):
            started = time.perf_counter()
            reply, reply_payload = original(client, document, payload)
            if document.get("op") == "run_shard":
                roundtrips.append(time.perf_counter() - started)
            shipped[0] += len(payload or b"") + len(reply_payload or b"")
            return reply, reply_payload

        engine = AggregateRiskEngine(EngineConfig())
        WorkerClient.request = counted  # type: ignore[method-assign]
        try:
            with FleetWorker(config=EngineConfig()) as worker:
                def run():
                    return engine.run_distributed(program, yet, workers=[worker.address],
                                                  n_shards=4)
                first = run()
                m["distributed.bytes_shipped"] = float(shipped[0])
                m["distributed.retries"] = float(first.details["fleet"]["requeued_shards"])
                m["distributed.fleet_run_ms"] = self._t(run, 3, 0) * 1e3
        finally:
            WorkerClient.request = original  # type: ignore[method-assign]
        m["distributed.shard_roundtrip_ms"] = statistics.median(roundtrips) * 1e3

    def host(self, stack_bytes: int) -> None:
        import os

        m = self.metrics
        m["host.nproc"] = float(os.cpu_count() or 1)
        n = HOST_BYTES // 8 // self.scale
        source, target = np.ones(n), np.empty(n)
        m["host.memcpy_gb_per_s"] = source.nbytes / self._t(
            lambda: np.copyto(target, source), 3) / 1e9
        # Random 8-byte reads from a table the size of the traced workload's
        # loss stack — the access pattern of the ELT lookup.
        table = np.ones(max(stack_bytes // 8, 1024))
        index = np.random.default_rng([self.seed, 0x6A7]).integers(0, table.size, size=n // 4)
        m["host.random_gather_gb_per_s"] = index.size * 8 / self._t(
            lambda: table[index], 3) / 1e9


def _http_submit(host: str, port: int, document: dict[str, Any]) -> dict[str, Any]:
    """One ``POST /submit`` over a fresh connection (the HTTP shim's contract)."""
    body = json.dumps(document).encode()
    head = (f"POST /submit HTTP/1.1\r\nhost: {host}\r\ncontent-type: application/json\r\n"
            f"content-length: {len(body)}\r\n\r\n").encode()
    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.sendall(head + body)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    _, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    return json.loads(payload)
