"""The five end-to-end workloads.

One *op* is one analysis request through the workload's entry point.  Every
workload follows the same life cycle, driven by :mod:`benchmarks.ledger.runner`:

``setup``     inputs from the seed, oracle, native build, server start, warm-up;
``prepare``   untimed: the next op's inputs (the generator's work, not the program's);
``execute``   timed: the op itself;
``check``     untimed: bit-for-bit comparison with a monolithic ``vectorized`` run.

All loops are closed: a caller asks its next question only after the last one
was answered, like the paper's underwriter.  Shapes are sized for a 2-core
shared host and the driver's ~30 s budget per run; the README lists them next
to the shapes the issue first proposed.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.financial.terms import LayerTerms
from repro.portfolio.program import ReinsuranceProgram
from repro.service.server import ServeClient
from repro.service.service import RiskService, candidate_variants

from benchmarks.ledger import inputs
from benchmarks.ledger.env import WorkDir, peak_rss_mb
from benchmarks.ledger.inputs import BookShape

#: Factor the smoke sizes (self-tests) divide trials and catalogs by.
SMOKE_FACTOR = 10


def oracle_engine() -> AggregateRiskEngine:
    """The correctness oracle: a monolithic single-shard ``vectorized`` run."""
    return AggregateRiskEngine(EngineConfig(backend="vectorized", trial_shards=1))


class Workload:
    """Base class: names, sizing and the life-cycle hooks."""

    name = ""
    why = ""
    #: Fixed tail percentile (``latency_tail_ms``); the loop runs at least
    #: the ops that give it ten samples beyond.
    tail_q = 0.90
    callers = 1
    shape: BookShape

    def __init__(self, seed: int, work: WorkDir, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.work = work
        self.smoke = smoke
        if smoke:
            self.shape = self.shape.scaled(SMOKE_FACTOR)

    # -- life cycle ---------------------------------------------------- #
    def setup(self, traced: bool = False) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop what ``setup`` started (services, server children)."""

    def prepare(self, caller: int, index: int) -> Any:
        return None

    def execute(self, caller: int, op: Any) -> Any:
        raise NotImplementedError

    def check(self, caller: int, op: Any, result: Any) -> tuple[bool, str]:
        raise NotImplementedError

    # -- reporting ----------------------------------------------------- #
    @property
    def lookups_per_op(self) -> int:
        """Stack-row lookups one op answers (rows x event occurrences)."""
        return self.shape.lookups

    def start_tracing(self) -> None:
        """Hook for workloads whose work happens in another process."""

    def remote_spans(self) -> Sequence[dict[str, Any]]:
        """Spans another process recorded for this workload's ops (after ``detail``)."""
        return ()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def detail(self) -> dict[str, Any]:
        """Counters read after the run (cache stats and the like)."""
        return {}

    def warm_up(self, n_ops: int) -> None:
        """Run (and check) ``n_ops`` ops outside the measurement."""
        for index in range(n_ops):
            op = self.prepare(0, WARMUP_BASE + index)
            ok, kind = self.check(0, op, self.execute(0, op))
            if not ok:
                raise RuntimeError(f"{self.name}: warm-up op {index} ({kind}) failed its oracle")


#: Warm-up ops take their indices from here so no measured op repeats one.
WARMUP_BASE = 1_000_000


def op_id(caller: int, index: int) -> int:
    """The id that ties an op's spans together (unique across callers)."""
    return caller * 10 * WARMUP_BASE + index


def service_detail(service: RiskService) -> dict[str, Any]:
    plan = service.cache_stats()
    detail: dict[str, Any] = {
        "plan_cache": {"hits": plan.hits, "misses": plan.misses,
                       "evictions": plan.evictions, "hit_rate": plan.hit_rate},
    }
    result = service.result_cache_stats()
    if result is not None:
        detail["result_cache"] = result.to_dict()
    return detail


# --------------------------------------------------------------------------- #
# batch_deep
# --------------------------------------------------------------------------- #
class BatchDeep(Workload):
    name = "batch_deep"
    why = ("paper Fig. 2 shape scaled: one 15-ELT layer over a long YET on the native "
           "backend, so all time is the fused C gather and terms; caches do nothing")
    tail_q = 0.90
    shape = BookShape(n_layers=1, elts_per_layer=15, n_trials=5_000,
                      events_per_trial=1_000, catalog_size=500_000)

    def setup(self, traced: bool = False) -> None:
        self.work.fresh_native_cache()  # every setup pays the real build
        self.book = inputs.generate_book(self.seed, self.shape)
        self.oracle = oracle_engine().run(self.book.program, self.book.yet).ylt.losses
        self.engine = AggregateRiskEngine(EngineConfig(backend="native"))
        self.fallbacks = 0
        self.warm_up(2)

    def execute(self, caller: int, op: Any) -> Any:
        return self.engine.run(self.book.program, self.book.yet)

    def check(self, caller: int, op: Any, result: Any) -> tuple[bool, str]:
        if result.details.get("native_fallback") or not result.details.get("native_kernel"):
            # Timing the NumPy fallback under the native workload's name
            # would be a silent lie: every such op is a failed op.
            self.fallbacks += 1
            return False, "fallback"
        return bool(np.array_equal(result.ylt.losses, self.oracle)), "run"

    def detail(self) -> dict[str, Any]:
        return {"native_fallbacks": self.fallbacks}


# --------------------------------------------------------------------------- #
# batch_wide
# --------------------------------------------------------------------------- #
class BatchWide(Workload):
    name = "batch_wide"
    why = ("term variants in batch form on the default NumPy backend: many rows over few "
           "unique stack rows, row_map expansion and split_result, short trial axis")
    tail_q = 0.75
    #: 128 rows x 15 000 events keep the rows x events scratch at 15 MB: above
    #: glibc's 32 MB mmap threshold every op would page-fault a fresh scratch
    #: buffer, which triples the op and makes it track the host's memory state.
    shape = BookShape(n_layers=8, elts_per_layer=8, n_trials=150,
                      events_per_trial=100, catalog_size=200_000)
    n_variants = 16

    def setup(self, traced: bool = False) -> None:
        self.book = inputs.generate_book(self.seed, self.shape)
        self.variants = candidate_variants(self.book.program, self.n_variants)
        oracle = oracle_engine()
        self.oracle = [oracle.run(v, self.book.yet).ylt.losses for v in self.variants]
        self.engine = AggregateRiskEngine(EngineConfig())
        self.warm_up(1)

    @property
    def lookups_per_op(self) -> int:
        return self.shape.lookups * self.n_variants

    def execute(self, caller: int, op: Any) -> Any:
        return self.engine.run_many(self.variants, self.book.yet)

    def check(self, caller: int, op: Any, result: Any) -> tuple[bool, str]:
        ok = len(result) == len(self.oracle) and all(
            np.array_equal(r.ylt.losses, o) for r, o in zip(result, self.oracle)
        )
        return bool(ok), "run_many"


# --------------------------------------------------------------------------- #
# quote_cold
# --------------------------------------------------------------------------- #
class QuoteCold(Workload):
    name = "quote_cold"
    why = ("first quote on a never-seen submission: digests, dense loss matrices, stack "
           "build and result-cache writes dominate; the kernel is a minority share")
    tail_q = 0.75
    shape = BookShape(n_layers=8, elts_per_layer=8, n_trials=1_000,
                      events_per_trial=100, catalog_size=100_000)
    #: Plans kept warm.  Nothing ever hits here, so the size only sets how many
    #: cold ops pass before evictions start recycling memory; until then every
    #: op page-faults ~60 MB of fresh memory and runs ~3x slower.  A small
    #: cache reaches that steady state within the warm-up instead of after
    #: the default 32 ops.
    plan_cache_size = 4
    warmup_ops = 8
    REQUEST = {"kind": "run", "program": "submission", "quote": True}

    def setup(self, traced: bool = False) -> None:
        self.book = inputs.generate_book(self.seed, self.shape)
        self.oracle = oracle_engine()
        self.service = RiskService(result_cache=True, cache_size=self.plan_cache_size)
        self.service.register_yet("submission", self.book.yet)
        self.warm_up(self.warmup_ops)

    def teardown(self) -> None:
        if hasattr(self, "service"):
            self.service.close()

    def prepare(self, caller: int, index: int) -> ReinsuranceProgram:
        program = inputs.perturbed_program(self.book.program, self.seed, index)
        self.service.register_program("submission", program)
        return program

    def execute(self, caller: int, op: ReinsuranceProgram) -> Any:
        return self.service.submit(dict(self.REQUEST))

    def check(self, caller: int, op: ReinsuranceProgram, result: Any) -> tuple[bool, str]:
        status = (result.result_cache or {}).get("status", "none")
        if status != "miss" or result.cache is None or result.cache.hit:
            return False, f"not-cold:{status}"  # a cache hit means the op was not cold
        expected = self.oracle.run(op, self.book.yet).ylt.losses
        return bool(np.array_equal(result.result.ylt.losses, expected)), "cold"

    def detail(self) -> dict[str, Any]:
        return service_detail(self.service)


# --------------------------------------------------------------------------- #
# requote_warm
# --------------------------------------------------------------------------- #
class RequoteWarm(Workload):
    name = "requote_warm"
    why = ("the underwriter on the phone: exact repeats, one-layer term changes, program "
           "variants under LRU pressure and appended trials hit the read side of the caches")
    tail_q = 0.95
    shape = BookShape(n_layers=16, elts_per_layer=8, n_trials=2_000,
                      events_per_trial=20, catalog_size=100_000)
    #: An append grows the YET by one fortieth of its base length (50 trials).
    append_fraction = 40
    #: After this many appends the next one starts a new season at the base
    #: length (a miss by design), which bounds the oracle to one YET.
    max_appends = 20
    n_variants = 24  # larger than result_cache_size (16): LRU pressure is real
    schedule_blocks = 40

    def setup(self, traced: bool = False) -> None:
        shape = self.shape
        self.append_trials = shape.n_trials // self.append_fraction
        longest = BookShape(shape.n_layers, shape.elts_per_layer,
                            shape.n_trials + self.append_trials * self.max_appends,
                            shape.events_per_trial, shape.catalog_size)
        self.book = inputs.generate_book(self.seed, longest)
        base = self.book.program
        inputs.warm_matrices(base)
        self.programs: dict[str, ReinsuranceProgram] = {"base": base}
        for row in range(base.n_layers):
            self.programs[f"row-{row}"] = inputs.one_layer_change(base, row)
        for k, variant in enumerate(candidate_variants(base, self.n_variants + 1)[1:]):
            self.programs[f"var-{k}"] = variant
        self.schedule = inputs.mixed_schedule(
            self.seed, inputs.REQUOTE_MIX, self.schedule_blocks,
            pools={"rows": base.n_layers, "variant": self.n_variants},
        )
        self.oracle_engine = oracle_engine()
        self.oracles: dict[str, np.ndarray] = {}
        self.yets: dict[int, Any] = {}
        self.service = RiskService(result_cache=True)
        for name, program in self.programs.items():
            self.service.register_program(name, program)
        self.appends = 0
        self.last = "base"
        self.service.register_yet("book", self._yet())
        self.answered_cells = 0
        self.repriced_cells = 0
        self.warm_up(8)

    def teardown(self) -> None:
        if hasattr(self, "service"):
            self.service.close()

    def _yet(self):
        """The YET of the current season state (memoised per length)."""
        n_trials = self.shape.n_trials + self.append_trials * self.appends
        if n_trials not in self.yets:
            self.yets[n_trials] = self.book.yet.slice_trials(0, n_trials)
        return self.yets[n_trials]

    def _oracle(self, name: str) -> np.ndarray:
        """Monolithic run of ``name`` over the longest YET; shorter states are
        its trial prefix (trial-local reductions make the two bit-identical)."""
        if name not in self.oracles:
            self.oracles[name] = self.oracle_engine.run(
                self.programs[name], self.book.yet
            ).ylt.losses
        return self.oracles[name]

    def prepare(self, caller: int, index: int) -> tuple[str, int]:
        if index >= WARMUP_BASE:  # warm-up: the base book, then the first variants
            k = index - WARMUP_BASE
            name = "base" if k == 0 else f"var-{k - 1}"
        else:
            kind, arg = self.schedule[index % len(self.schedule)]
            if kind == "exact":
                name = self.last
            elif kind == "rows":
                name = f"row-{arg}"
            elif kind == "variant":
                name = f"var-{arg}"
            else:  # append: the YET grows (or a new season starts), base book re-priced
                self.appends = (self.appends + 1) % (self.max_appends + 1)
                self.service.register_yet("book", self._yet())
                name = "base"
        self.last = name
        return name, self._yet().n_trials

    def execute(self, caller: int, op: tuple[str, int]) -> Any:
        return self.service.submit(
            {"kind": "run", "program": op[0], "yet": "book", "quote": True}
        )

    def check(self, caller: int, op: tuple[str, int], result: Any) -> tuple[bool, str]:
        name, n_trials = op
        info = result.result_cache or {}
        status = str(info.get("status", "none"))
        losses = result.result.ylt.losses
        cells = losses.shape[0] * losses.shape[1]
        self.answered_cells += cells
        if status == "append":
            self.repriced_cells += losses.shape[0] * int(info.get("repriced_trials", 0))
        elif status == "rows":
            self.repriced_cells += len(info.get("repriced_rows", ())) * losses.shape[1]
        elif status != "exact":
            self.repriced_cells += cells
        return bool(np.array_equal(losses, self._oracle(name)[:, :n_trials])), status

    def detail(self) -> dict[str, Any]:
        detail = service_detail(self.service)
        detail["schedule_digest"] = inputs.schedule_digest(self.schedule)
        detail["repriced_trial_share"] = (
            self.repriced_cells / self.answered_cells if self.answered_cells else 0.0
        )
        return detail


# --------------------------------------------------------------------------- #
# serve_mixed
# --------------------------------------------------------------------------- #
def serve_programs(base: ReinsuranceProgram, n_books: int) -> dict[str, ReinsuranceProgram]:
    """The registered term variants ``book-0 .. book-(n-1)`` of the served book.

    Shared by the client (for its oracles) and the server child (for its
    registry); both derive the book from the same seed.
    """
    inputs.warm_matrices(base)
    books = {}
    for i in range(n_books):
        scale = 1.0 + 0.02 * i
        layers = [
            layer.with_terms(LayerTerms(
                occurrence_retention=layer.terms.occurrence_retention * scale,
                occurrence_limit=layer.terms.occurrence_limit,
                aggregate_retention=layer.terms.aggregate_retention,
                aggregate_limit=layer.terms.aggregate_limit,
            ))
            for layer in base.layers
        ]
        books[f"book-{i}"] = ReinsuranceProgram(layers, name=f"{base.name}/{i}")
    return books


class ServeMixed(Workload):
    name = "serve_mixed"
    why = ("tiny requests over NDJSON to a server child from two closed-loop connections: "
           "wire framing, JSON, the event loop and executor hand-off are most of the time")
    tail_q = 0.99
    callers = 2
    shape = BookShape(n_layers=16, elts_per_layer=8, n_trials=200,
                      events_per_trial=40, catalog_size=40_000)
    n_books = 12
    run_many_variants = 8
    run_many_pool = 4
    max_inflight = 2
    queue_depth = 16
    schedule_blocks = 40

    def setup(self, traced: bool = False) -> None:
        port_file = self.work.sub("serve") / "port"
        self.report_file = port_file.with_name("report.json")
        command = [
            sys.executable, str(Path(__file__).with_name("server_child.py")),
            "--seed", str(self.seed), "--port-file", str(port_file),
            "--report", str(self.report_file), "--trace", "1" if traced else "0",
        ] + (["--smoke"] if self.smoke else [])
        self.server = self.work.track(subprocess.Popen(command, stdout=subprocess.DEVNULL))
        self.child_report: dict[str, Any] = {}
        # The client derives the same book from the seed while the child
        # starts: it needs the programs for its oracles, not for serving.
        book = inputs.generate_book(self.seed, self.shape)
        oracle = oracle_engine()
        self.aal: dict[str, float] = {}
        self.aal_many: dict[str, list[float]] = {}
        books = serve_programs(book.program, self.n_books)
        for i, (name, program) in enumerate(books.items()):
            self.aal[name] = _aal(oracle.run(program, book.yet))
            if i < self.run_many_pool:
                self.aal_many[name] = [
                    _aal(oracle.run(variant, book.yet))
                    for variant in candidate_variants(program, self.run_many_variants)
                ]
        self.schedules = [
            inputs.mixed_schedule(
                self.seed, inputs.SERVE_MIX, self.schedule_blocks,
                pools={"run": self.n_books, "run_nocache": self.n_books,
                       "run_many": self.run_many_pool},
                stream=caller,
            )
            for caller in range(self.callers)
        ]
        port = _wait_for_port(port_file, self.server)
        self.clients = [ServeClient("127.0.0.1", port, timeout=60.0)
                        for _ in range(self.callers)]
        self.answered = [0] * self.callers   # per caller: the callers are threads
        self.repriced = [0] * self.callers
        self.warm_up(self.n_books + self.run_many_pool)

    def teardown(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
        self.stop_server()

    def stop_server(self) -> None:
        """SIGTERM (graceful drain) -> wait -> kill; then read the child's report."""
        server = getattr(self, "server", None)
        if server is None or server.poll() is not None:
            return
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        if self.report_file.exists():
            self.child_report = json.loads(self.report_file.read_text())

    def start_tracing(self) -> None:
        self.server.send_signal(signal.SIGUSR1)
        time.sleep(0.05)  # let the child's loop run the handler before the next op

    def remote_spans(self) -> Sequence[dict[str, Any]]:
        return self.child_report.get("spans", ())

    @property
    def lookups_per_op(self) -> int:
        """Lookups of the dominant request kind (a plain ``run``)."""
        return self.shape.lookups

    def prepare(self, caller: int, index: int) -> tuple[str, dict[str, Any]]:
        """``(kind, request document)`` of the caller's next scheduled request."""
        if index >= WARMUP_BASE:
            k = index - WARMUP_BASE
            kind, arg = ("run", k) if k < self.n_books else ("run_many", k - self.n_books)
        else:
            schedule = self.schedules[caller]
            kind, arg = schedule[index % len(schedule)]
        ident = op_id(caller, index)
        if kind == "stats":
            return kind, {"op": "stats", "id": ident}
        document: dict[str, Any] = {
            "kind": "run", "program": f"book-{arg}", "quote": False,
            "id": ident, "tags": {"op": ident},
        }
        if kind == "run_nocache":
            document["result_cache"] = False
        elif kind == "run_many":
            document.update(kind="run_many", variants=self.run_many_variants)
        return kind, document

    def execute(self, caller: int, op: tuple[str, dict[str, Any]]) -> dict[str, Any]:
        return self.clients[caller].request(op[1])

    def check(self, caller: int, op: tuple[str, dict[str, Any]],
              result: dict[str, Any]) -> tuple[bool, str]:
        kind, document = op
        if "error" in result or result.get("id") != document["id"]:
            return False, f"{kind}:{result.get('error', {}).get('type', 'mismatched-id')}"
        if kind == "stats":
            return "stats" in result, kind
        served = [entry["portfolio_aal"] for entry in result["results"]]
        status = result.get("details", {}).get("result_cache", {}).get("status")
        self.answered[caller] += len(served)
        self.repriced[caller] += 0 if status == "exact" else len(served)
        if kind == "run_many":
            return served == self.aal_many[document["program"]], kind
        return served == [self.aal[document["program"]]], kind

    def peak_rss_mb(self) -> float:
        """Client process plus the server child (read from the child's report)."""
        self.stop_server()
        return peak_rss_mb() + float(self.child_report.get("peak_rss_mb", 0.0))

    def detail(self) -> dict[str, Any]:
        """Server-side counters: the ``stats`` op, then the stopped child's report."""
        detail: dict[str, Any] = {"server": self.clients[0].request({"op": "stats"})}
        self.stop_server()
        for key in ("plan_cache", "result_cache"):
            detail[key] = self.child_report.get(key, {})
        answered = sum(self.answered)
        detail["repriced_trial_share"] = sum(self.repriced) / answered if answered else 1.0
        detail["schedule_digest"] = inputs.schedule_digest(self.schedules)
        return detail


def _aal(result: Any) -> float:
    """The served ``portfolio_aal`` expression (``AnalysisResponse.to_dict``)."""
    return float(result.ylt.portfolio_losses().mean())


def _wait_for_port(port_file: Path, server: subprocess.Popen, timeout: float = 60.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if port_file.exists():
            text = port_file.read_text().strip()
            if text:
                return int(text)
        if server.poll() is not None:
            raise RuntimeError(f"serve_mixed: server child exited with code {server.returncode}")
        time.sleep(0.01)
    raise RuntimeError(f"serve_mixed: server child did not bind within {timeout:.0f}s")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (BatchDeep, BatchWide, QuoteCold, RequoteWarm, ServeMixed)
}
