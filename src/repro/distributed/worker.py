"""The fleet worker: ``are worker`` — a warm shard-pricing socket server.

One worker process hosts one warm engine per requested configuration plus a
digest-keyed artifact cache (programs, inline-shipped YETs) and one plan per
workload — ``(program, YET reference, config)`` — lowered over the
referenced shard source.  Each ``run_shard`` request prices that plan
restricted to its trial range; the restricted children share the parent's
lazily built loss stack, so every shard of a workload after the first goes
straight from the control line to the kernel pass.  The first request ships
the program (and, without a shared filesystem, the YET) once; every later
request — from the same analysis or the next one — sends only digests.

The server is deliberately *threaded-blocking*, not asyncio: a worker's job
is to saturate its cores with one kernel pass at a time (executions
serialise on a lock), and the coordinator holds one connection per worker —
there is no fan-in to multiplex.  The asyncio machinery of
:mod:`repro.service.server` solves a different problem (many clients, one
box) and stays where it is.

Helpers for tests and benchmarks: :class:`WorkerProcess` spawns a worker in
a child process (killable mid-run, which is how the shard-reassignment
suite exercises worker death) and reports its ephemeral port back.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import socket
import threading
from dataclasses import replace
from typing import Any, Mapping, Tuple

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
from repro.service.response import error_payload
from repro.yet.io import yet_from_bytes
from repro.yet.stores import InMemoryYetStore, resolve_yet_ref
from repro.distributed.protocol import (
    MissingArtifact,
    format_address,
    recv_frame,
    send_frame,
)

__all__ = ["FleetWorker", "WorkerProcess"]


class FleetWorker:
    """A warm shard-pricing worker behind a threaded TCP socket server.

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
        self._shutdown = threading.Event()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: "set[socket.socket]" = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        """The bound ``"host:port"`` address (after :meth:`start`)."""
        return format_address(self.host, self.port)

    def start(self) -> "FleetWorker":
        """Bind the listener and start accepting connections."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        listener.settimeout(0.25)
        self.host, self.port = listener.getsockname()[:2]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"are-worker-{self.port}", daemon=True
        )
        self._accept_thread.start()
        return self

    def wait(self, timeout: float | None = None) -> bool:
        """Block until a shutdown is requested, then close the listener.

        Returns ``True`` when the worker shut down within ``timeout``
        (``None`` waits forever); ``False`` leaves it serving.
        """
        if not self._shutdown.wait(timeout):
            return False
        self.stop()
        return True

    def is_serving(self) -> bool:
        """Whether the accept loop is live (started and not shut down)."""
        return self._listener is not None and not self._shutdown.is_set()

    def request_shutdown(self) -> None:
        """Ask the accept loop to stop (safe from any thread)."""
        self._shutdown.set()

    def stop(self) -> None:
        """Stop accepting, close open connections, release the listener."""
        self._shutdown.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
            self._listener = None
        with self._state_lock:
            connections = list(self._connections)
        for conn in connections:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                conn.close()
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
    # Connection handling
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._shutdown.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._state_lock:
                self._connections.add(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        try:
            while not self._shutdown.is_set():
                try:
                    document, payload = recv_frame(stream)
                except (ConnectionError, OSError, ValueError):
                    break
                request_id = document.get("id")
                try:
                    reply, reply_payload = self._dispatch(document, payload)
                except MissingArtifact as exc:
                    reply = error_payload(exc)
                    reply["error"]["missing"] = exc.missing
                    reply_payload = None
                except Exception as exc:  # noqa: BLE001 - the loop must survive any request
                    reply = error_payload(exc)
                    reply_payload = None
                if request_id is not None:
                    reply["id"] = request_id
                try:
                    send_frame(stream, reply, reply_payload)
                except (ConnectionError, OSError):
                    break
                if document.get("op") == "shutdown":
                    break
        finally:
            with self._state_lock:
                self._connections.discard(conn)
            with contextlib.suppress(OSError):
                stream.close()
            with contextlib.suppress(OSError):
                conn.close()

    # ------------------------------------------------------------------ #
    # Ops
    # ------------------------------------------------------------------ #
    def _dispatch(
        self, document: Mapping[str, Any], payload: bytes | None
    ) -> Tuple[dict, bytes | None]:
        op = document.get("op")
        if op == "ping":
            return {"ok": True, "worker": self.name}, None
        if op == "status":
            return self._status(), None
        if op == "put_program":
            return self._put_program(document, payload), None
        if op == "put_yet":
            return self._put_yet(document, payload), None
        if op == "run_shard":
            return self._run_shard(document)
        if op == "shutdown":
            self.request_shutdown()
            return {"ok": True, "stopping": True, "stats": self.stats_line()}, None
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
            try:
                with socket.create_connection((self.host, self.port), timeout=5.0) as conn:
                    stream = conn.makefile("rwb")
                    send_frame(stream, {"op": "shutdown"})
                    recv_frame(stream)
            except (OSError, ConnectionError):
                pass
            self._process.join(timeout=10.0)
        if self._process.is_alive():
            self.kill()
        self._process = None

    def __enter__(self) -> "WorkerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
