"""The fleet worker: ``are worker`` — a warm shard-pricing role on ``RiskServer``.

One worker process hosts one warm engine per requested configuration plus a
digest-keyed artifact cache (programs, inline-shipped YETs) and one plan per
workload — ``(program, YET reference, config)`` — lowered over the
referenced shard source.  Each ``run_shard`` request prices that plan
restricted to its trial range; the restricted children share the parent's
lazily built loss stack, so every shard of a workload after the first goes
straight from the control line to the kernel pass.  The first request ships
the program (and, without a shared filesystem, the YET) once; every later
request — from the same analysis or the next one — sends only digests.

The socket side is :class:`~repro.service.server.RiskServer` in a second
role, so a worker inherits its framing, admission control (a full worker
answers ``Overloaded``, which the coordinator treats like a timeout), the
drain that answers in-flight shards, structured errors and the ``stats``
op.  Shard executions serialise on one lock.

Requests (coordinator → worker)::

    {"op": "ping"}
    {"op": "status"}
    {"op": "stats"}
    {"op": "put_program", "digest": d, "nbytes": N}   + pickled program
    {"op": "put_yet",     "digest": d, "nbytes": N}   + yet_to_bytes blob
    {"op": "run_shard",   "program": d, "yet": REF,
     "config": FIELDS, "trials": [start, stop]}
    {"op": "shutdown"}

``REF`` is a YET store reference (:mod:`repro.yet.stores`); ``FIELDS`` is
the plan-relevant config dict of :func:`repro.service.digests.plan_relevant_config`
(every value is already JSON-safe).  A worker applies those fields over its
own base config and answers any other key with a structured error naming it.
A successful ``run_shard`` answers ``{"ok": true, ..., "nbytes": N}``
followed by the :meth:`~repro.core.results.PartialResult.to_bytes` payload.

A worker that lacks a referenced artifact answers a structured
``MissingArtifact`` error naming every missing digest; the coordinator
ships the artifacts and resends — so the *first* request for a workload
carries the program (and, inline deployments, the YET) exactly once, and
every later request is digests only.

``put_program`` payloads are **pickled** program objects: the protocol is
for a trusted fleet (your own workers on your own network), the same trust
model as multiprocessing itself.  The worker re-derives the content digest
from the unpickled program and rejects a mismatch, so a corrupted or
mislabeled artifact can never silently price the wrong book.

Helpers for tests and benchmarks: :class:`WorkerProcess` spawns a worker in
a child process (killable mid-run, which is how the shard-reassignment
suite exercises worker death) and reports its ephemeral port back.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
from dataclasses import replace
from typing import Any, Callable, Mapping, Tuple

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.plan import PlanBuilder
from repro.core.results import PartialResult
from repro.parallel.partitioner import TrialRange
from repro.service.cache import CacheStats, PlanCache
from repro.service.digests import (
    PLAN_RELEVANT_CONFIG_FIELDS,
    config_digest,
    program_digest,
    yet_digest,
)
from repro.service.server import RiskServer, ServerThread
from repro.yet.io import yet_from_bytes
from repro.yet.stores import InMemoryYetStore, resolve_yet_ref
from repro.distributed.fleet import MissingArtifact, WorkerClient, format_address

__all__ = ["FleetWorker", "WorkerProcess"]


class _WorkerServer(RiskServer):
    """The worker role: ``ping`` and ``shutdown`` inline, ``stats`` from the
    base class, every other op through :meth:`FleetWorker._dispatch`."""

    service: "FleetWorker"
    accepts_payloads = True

    def _control(self, op: str) -> dict | None:
        if op == "ping":
            return {"ok": True, "worker": self.service.name}
        if op == "shutdown":
            self.request_shutdown()
            return {"ok": True, "stopping": True, "stats": self.service.stats_line()}
        return super()._control(op) if op == "stats" else None

    def _prepare(self, document: Any, payload: bytes | None) -> Callable[[], Any]:
        return lambda: self.service._dispatch(document, payload)

    def _answer(self, result: Tuple[dict, bytes | None]) -> Tuple[dict, bytes | None]:
        return result


class FleetWorker:
    """A warm shard-pricing worker, served by a :class:`RiskServer` role.

    Parameters
    ----------
    config:
        The worker's *base* engine config.  Each ``run_shard`` request
        carries the coordinator's plan-relevant fields, which are applied
        over this base (``EngineConfig.replace``) — so the backend and
        precision that determine the numbers always come from the
        coordinator, while purely local fields stay the operator's choice
        (a request naming any other field is refused).
    host, port:
        Listen address; port 0 binds an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    name:
        Provenance label stamped into every produced partial's ``details``
        (and therefore into accumulator overlap diagnostics).
    cache_size:
        Capacity of the digest-keyed workload-plan cache.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str | None = None,
        cache_size: int = 32,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.host = host
        self.port = int(port)
        self.name = name or f"worker-{os.getpid()}"
        self.plan_cache = PlanCache(maxsize=cache_size)
        self.served = 0
        self._programs: dict[str, Any] = {}
        self._yets = InMemoryYetStore()
        self._engines: dict[str, AggregateRiskEngine] = {}
        self._exec_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._thread: ServerThread | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        """The bound ``"host:port"`` address (after :meth:`start`)."""
        return format_address(self.host, self.port)

    def start(self) -> "FleetWorker":
        """Bind the listener and serve on a dedicated event-loop thread."""
        self._thread = ServerThread(_WorkerServer(self, self.host, self.port)).start()
        self.host, self.port = self._thread.server.host, self._thread.server.port
        return self

    def wait(self, timeout: float | None = None) -> bool:
        """Block until a shutdown is requested and drained, then stop.

        Returns ``True`` when the worker shut down within ``timeout``
        (``None`` waits forever); ``False`` leaves it serving.
        """
        if self._thread is not None and not self._thread.join(timeout):
            return False
        self.stop()
        return True

    def stop(self) -> None:
        """Drain — answer every in-flight request — then release the engines."""
        if self._thread is not None:
            self._thread.stop()
            self._thread = None
        for engine in self._engines.values():
            engine.close()

    def __enter__(self) -> "FleetWorker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stats_line(self) -> str:
        """The shutdown stats line — the same shape ``are serve`` prints."""
        return f"served {self.served} requests | {self.plan_cache.stats.summary()}"

    def cache_stats(self) -> CacheStats:
        """Workload-plan cache counters."""
        return self.plan_cache.stats

    # ------------------------------------------------------------------ #
    # Ops (on the server's executor)
    # ------------------------------------------------------------------ #
    def _dispatch(
        self, document: Mapping[str, Any], payload: bytes | None
    ) -> Tuple[dict, bytes | None]:
        op = document.get("op")
        if op == "status":
            return self._status(), None
        if op == "put_program":
            return self._put_program(document, payload), None
        if op == "put_yet":
            return self._put_yet(document, payload), None
        if op == "run_shard":
            return self._run_shard(document)
        raise ValueError(f"unknown op {op!r}")

    def _status(self) -> dict:
        with self._state_lock:
            programs = sorted(self._programs)
            yets = self._yets.keys()
        stats = self.plan_cache.stats
        return {
            "ok": True,
            "worker": self.name,
            "backend": self.config.backend,
            "served": self.served,
            "programs": programs,
            "yets": yets,
            "plan_cache": {"entries": stats.entries, "hits": stats.hits, "misses": stats.misses},
        }

    def _put_program(self, document: Mapping[str, Any], payload: bytes | None) -> dict:
        if payload is None:
            raise ValueError("put_program requires a pickled program payload")
        claimed = str(document["digest"])
        program = pickle.loads(payload)
        _check_digest("program", program_digest(program), claimed)
        with self._state_lock:
            self._programs[claimed] = program
        return {"ok": True, "stored": claimed}

    def _put_yet(self, document: Mapping[str, Any], payload: bytes | None) -> dict:
        if payload is None:
            raise ValueError("put_yet requires a YET payload")
        claimed = str(document["digest"])
        yet = yet_from_bytes(payload)
        _check_digest("YET", yet_digest(yet), claimed)
        with self._state_lock:
            self._yets.put(claimed, yet)
        return {"ok": True, "stored": claimed}

    def _engine_for(self, config: EngineConfig) -> Tuple[AggregateRiskEngine, str]:
        digest = config_digest(config)
        with self._state_lock:
            engine = self._engines.get(digest)
            if engine is None:
                engine = self._engines[digest] = AggregateRiskEngine(config)
        return engine, digest

    def _run_shard(self, document: Mapping[str, Any]) -> Tuple[dict, bytes]:
        prog_digest = str(document["program"])
        yet_ref = document.get("yet") or {}
        trials = TrialRange(*(int(v) for v in document["trials"]))
        fields = document.get("config") or {}
        if not isinstance(fields, dict):
            raise ValueError("run_shard 'config' must be a JSON object")
        unknown = sorted(set(fields) - set(PLAN_RELEVANT_CONFIG_FIELDS))
        if unknown:
            raise ValueError(
                f"run_shard config field(s) {unknown} are not plan-relevant; "
                f"a worker accepts only {list(PLAN_RELEVANT_CONFIG_FIELDS)}"
            )

        missing: dict[str, str] = {}
        with self._state_lock:
            program = self._programs.get(prog_digest)
        if program is None:
            missing["program"] = prog_digest
        if yet_ref.get("kind") == InMemoryYetStore.kind and not self._yets.contains(
            str(yet_ref.get("digest"))
        ):
            missing["yet"] = str(yet_ref.get("digest"))
        if missing:
            raise MissingArtifact(missing)

        config = self.config.replace(**fields) if fields else self.config
        engine, cfg_digest = self._engine_for(config)
        plan_key = (prog_digest, yet_ref.get("digest") or yet_ref.get("path"), cfg_digest)

        def build():
            # The source is opened here, once per cached plan, and lives as
            # long as the plan does; the driver materialises one shard of it.
            source = resolve_yet_ref(yet_ref, inline_store=self._yets)
            return PlanBuilder.from_program(program, source)

        plan, was_hit = self.plan_cache.get_or_build(plan_key, build)
        with self._exec_lock:
            result = engine.run_plan(plan.restrict(trials))

        provenance = {"worker": self.name, "plan_cache_hit": was_hit}
        partial = PartialResult.from_result(result, trials=trials)
        partial = replace(partial, details={**partial.details, **provenance})
        with self._state_lock:
            self.served += 1
        trial_range = [trials.start, trials.stop]
        reply = {"ok": True, "trials": trial_range, "wall_seconds": result.wall_seconds}
        return {**reply, **provenance}, partial.to_bytes()


def _check_digest(kind: str, actual: str, claimed: str) -> None:
    """Reject a shipped artifact whose content does not hash to its claimed key."""
    if actual != claimed:
        raise ValueError(
            f"{kind} digest mismatch: payload hashes to {actual[:12]}…, "
            f"request claims {claimed[:12]}…"
        )


# --------------------------------------------------------------------------- #
# Subprocess helper (tests, benchmarks, worker-kill drills)
# --------------------------------------------------------------------------- #
def _worker_process_main(config: EngineConfig, host: str, name: str, port_queue) -> None:
    worker = FleetWorker(config=config, host=host, name=name)
    worker.start()
    port_queue.put(worker.port)
    worker.wait()


class WorkerProcess:
    """A fleet worker in a child process, killable mid-run.

    ``start`` blocks until the child reports its bound ephemeral port.
    ``stop`` asks for a graceful shutdown; ``kill`` SIGKILLs the child —
    the failure mode the coordinator's shard-reassignment path is tested
    against.  Spawned (not forked): a worker owns threads and sockets that
    must not be inherited mid-state.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        host: str = "127.0.0.1",
        name: str | None = None,
    ) -> None:
        import multiprocessing

        self.config = config if config is not None else EngineConfig()
        self.host = host
        self.name = name or "worker-proc"
        self.port: int | None = None
        self._ctx = multiprocessing.get_context("spawn")
        self._process = None
        self._queue = None

    @property
    def address(self) -> str:
        if self.port is None:
            raise RuntimeError("worker process not started")
        return format_address(self.host, self.port)

    def start(self, timeout: float = 60.0) -> "WorkerProcess":
        self._queue = self._ctx.Queue()
        self._process = self._ctx.Process(
            target=_worker_process_main,
            args=(self.config, self.host, self.name, self._queue),
            daemon=True,
        )
        self._process.start()
        self.port = int(self._queue.get(timeout=timeout))
        return self

    def kill(self) -> None:
        """SIGKILL the worker (simulates a died/unplugged machine)."""
        if self._process is not None:
            self._process.kill()
            self._process.join(timeout=10.0)

    def stop(self) -> None:
        """Graceful shutdown via the protocol, escalating to kill."""
        if self._process is None:
            return
        if self._process.is_alive() and self.port is not None:
            with contextlib.suppress(OSError), WorkerClient(self.address, timeout=5.0) as client:
                client.shutdown()
            self._process.join(timeout=10.0)
        if self._process.is_alive():
            self.kill()
        self._process = None

    def __enter__(self) -> "WorkerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
