"""Async concurrent serving front end for the :class:`RiskService`.

``are serve`` without ``--listen`` is a blocking stdin NDJSON loop: one
request in flight at a time, one client.  This module is the concurrent
form — an asyncio TCP server speaking the same NDJSON protocol (plus a
minimal HTTP shim) that splits :meth:`RiskService.submit` at its natural
seam:

* **validation** runs on the event loop via :meth:`RiskService.prepare`
  (microseconds), so a malformed document is answered without a pool slot;
* **everything else** — artifact resolution, the cache lookups, the kernel
  pass over the warm shared-memory workspaces — is dispatched to a bounded
  :class:`ThreadPoolExecutor` (``max_inflight`` workers) via
  :meth:`PreparedSubmission.execute`.  The per-key build locks make
  concurrent cold misses safe, and the numpy gather/reduce kernels release
  the GIL, so executions overlap.

Admission control is a simple counted queue: at most ``max_inflight``
requests executing plus ``queue_depth`` waiting.  A request beyond that is
rejected *immediately* with a structured ``{"error": {"type":
"Overloaded"}}`` line — backpressure is explicit and cheap rather than
implicit and unbounded.

Protocol (one JSON document per line, responses in completion order):

* a request document may carry an ``"id"`` — it is echoed verbatim in the
  response line, so clients can pipeline many requests per connection and
  match answers;
* ``{"op": "stats"}`` answers inline (never queued/rejected) with
  ``served``/``rejected``/``errors`` counters and ``p50``/``p99``
  processing latencies (lowering + execution, excluding executor-slot
  wait — queue pressure shows up as ``pending`` instead), plus the
  gathered-row store's ``row_store`` counters (entries, bytes, hits,
  misses, evictions; :mod:`repro.core.row_store`);
  ``{"op": "ping"}`` answers ``{"ok": true}``;
  ``{"op": "shutdown"}`` begins a graceful drain;
* the HTTP shim auto-detects ``GET``/``POST``/``HEAD`` request lines on
  the same port: ``GET /stats`` returns the stats document, ``POST
  /submit`` answers one request document (``429`` when overloaded).

Graceful drain (SIGINT/SIGTERM or ``request_shutdown()``): stop accepting
connections, finish every in-flight request, answer it, disconnect idle
clients, tear down the executor.  Retained shared-memory workspaces are
owned by the service, whose ``close()`` unlinks them — a drained server
leaves /dev/shm clean.

Example::

    service = RiskService(EngineConfig(backend="vectorized"))
    with ServerThread(service, max_inflight=4) as handle:
        with ServeClient(handle.server.host, handle.server.port) as client:
            for i in range(8):                       # pipelined
                client.send({"kind": "run", "program": "bench", "id": i})
            answers = [client.recv() for _ in range(8)]

(the CLI equivalent is ``are serve --listen 127.0.0.1:9800 --max-inflight 4``).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping

from repro.core import row_store
from repro.service.request import RequestValidationError
from repro.service.response import error_payload
from repro.service.service import RiskService

__all__ = ["Overloaded", "RiskServer", "ServeClient", "ServerThread", "ServerStats"]

#: Latency reservoir bound — old samples are folded away beyond this.
_MAX_LATENCY_SAMPLES = 65536


class Overloaded(RuntimeError):
    """Admission control rejected the request (its class name is the wire
    ``"type"`` of the structured rejection — ``{"error": {"type":
    "Overloaded"}}``)."""


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0.0 if empty)."""
    if not ordered:
        return 0.0
    rank = max(int(math.ceil(q * len(ordered))) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


class ServerStats:
    """Serving counters + latency reservoir (mutated on the loop thread only)."""

    __slots__ = ("served", "rejected", "errors", "_latencies")

    def __init__(self) -> None:
        self.served = 0
        self.rejected = 0
        self.errors = 0
        self._latencies: list[float] = []

    def record(self, seconds: float) -> None:
        self.served += 1
        self._latencies.append(float(seconds))
        if len(self._latencies) > _MAX_LATENCY_SAMPLES:
            # Keep the most recent half; the percentiles stay current.
            del self._latencies[: len(self._latencies) // 2]

    def to_dict(self) -> dict[str, Any]:
        ordered = sorted(self._latencies)
        return {
            "served": self.served,
            "rejected": self.rejected,
            "errors": self.errors,
            "p50_seconds": _percentile(ordered, 0.50),
            "p99_seconds": _percentile(ordered, 0.99),
        }

    def summary(self) -> str:
        stats = self.to_dict()
        return (
            f"served {stats['served']} | rejected {stats['rejected']} | "
            f"errors {stats['errors']} | "
            f"p50 {stats['p50_seconds'] * 1e3:.1f}ms | "
            f"p99 {stats['p99_seconds'] * 1e3:.1f}ms"
        )


def _with_id(payload: dict, request_id: Any) -> dict:
    if request_id is not None:
        payload["id"] = request_id
    return payload


def _looks_like_http(line: bytes) -> bool:
    return line.split(b" ", 1)[0] in (b"GET", b"POST", b"HEAD")


class RiskServer:
    """Asyncio TCP/NDJSON (+ HTTP shim) server over one warm RiskService.

    Parameters
    ----------
    service:
        The warm service to answer from.  The server never closes it — the
        caller owns its lifetime (and its /dev/shm workspaces).
    host, port:
        Listen address; port 0 binds an ephemeral port (read the bound one
        back from :attr:`port` after :meth:`start`).
    max_inflight:
        Executor width — requests executing concurrently.
    queue_depth:
        Requests allowed to wait beyond the executing ones before
        admission control rejects with ``Overloaded``.
    """

    def __init__(
        self,
        service: RiskService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 2,
        queue_depth: int = 16,
    ) -> None:
        self.service = service
        self.host = host
        self.port = int(port)
        self.max_inflight = max(int(max_inflight), 1)
        self.queue_depth = max(int(queue_depth), 0)
        self.stats = ServerStats()
        self.started = threading.Event()
        self._pending = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._shutdown: asyncio.Event | None = None
        self._tasks: "set[asyncio.Task]" = set()
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._connections: "set[asyncio.StreamWriter]" = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listener and spin up the executor pool."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="are-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        self.started.set()

    async def run(self, *, install_signal_handlers: bool = True) -> None:
        """Serve until a shutdown is requested, then drain gracefully."""
        if self._server is None:
            await self.start()
        assert self._loop is not None and self._shutdown is not None
        handled_signals: list[signal.Signals] = []
        if install_signal_handlers:
            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                    self._loop.add_signal_handler(signum, self.request_shutdown)
                    handled_signals.append(signum)
        try:
            await self._shutdown.wait()
        finally:
            await self._drain()
            for signum in handled_signals:
                with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                    self._loop.remove_signal_handler(signum)

    def request_shutdown(self) -> None:
        """Begin a graceful drain (safe from signal handlers and threads)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return

        def _set() -> None:
            if self._shutdown is not None:
                self._shutdown.set()

        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(_set)

    async def _drain(self) -> None:
        # 1. Stop accepting new connections.
        if self._server is not None:
            self._server.close()
        # 2. Answer every admitted request (new lines are rejected by now).
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        # 3. Disconnect idle clients so their blocked readers see EOF, and
        #    let the handlers run to completion before the loop goes away.
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        if self._conn_tasks:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(*list(self._conn_tasks), return_exceptions=True),
                    timeout=5.0,
                )
        # 4. …and only then wait for the listener (3.12+ waits on handlers).
        if self._server is not None:
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handler = asyncio.current_task()
        if handler is not None:
            self._conn_tasks.add(handler)
            handler.add_done_callback(self._conn_tasks.discard)
        self._connections.add(writer)
        write_lock = asyncio.Lock()
        conn_tasks: "set[asyncio.Task]" = set()
        try:
            line = await reader.readline()
            if line and _looks_like_http(line):
                await self._handle_http(line, reader, writer)
                return
            while line:
                text = line.decode("utf-8", "replace").strip()
                if text:
                    task = asyncio.ensure_future(
                        self._serve_line(text, writer, write_lock)
                    )
                    self._tasks.add(task)
                    conn_tasks.add(task)
                    task.add_done_callback(self._tasks.discard)
                    task.add_done_callback(conn_tasks.discard)
                line = await reader.readline()
            # EOF: finish this connection's in-flight answers before closing.
            while conn_tasks:
                await asyncio.gather(*list(conn_tasks), return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            # No wait_closed here: every answer already drained under the
            # write lock, and awaiting transport teardown can outlive the
            # loop (spurious CancelledError at shutdown).
            with contextlib.suppress(Exception):
                writer.close()

    async def _serve_line(
        self, text: str, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        request_id: Any = None
        try:
            document: Any = json.loads(text)
        except json.JSONDecodeError as exc:
            self.stats.errors += 1
            await self._write(writer, write_lock, error_payload(exc))
            return
        if isinstance(document, dict):
            request_id = document.pop("id", None)
            op = document.get("op")
            if op is not None:
                await self._write(
                    writer, write_lock, self._control(str(op), request_id)
                )
                return
        try:
            response, seconds = await self._submit(document)
        except Overloaded as exc:
            self.stats.rejected += 1
            await self._write(writer, write_lock, _with_id(error_payload(exc), request_id))
            return
        except Exception as exc:  # noqa: BLE001 - the loop must survive any request
            self.stats.errors += 1
            await self._write(writer, write_lock, _with_id(error_payload(exc), request_id))
            return
        payload = _with_id(response.to_dict(), request_id)
        await self._write(writer, write_lock, payload)
        self.stats.record(seconds)

    async def _submit(self, document: Any):
        """Admit, prepare on the loop, execute on the pool.

        Returns ``(response, seconds)`` where ``seconds`` is the processing
        latency — lowering plus kernel execution, clocked only while the
        request is actually being worked on.  Time spent waiting for an
        executor slot is excluded: queue pressure is already visible as
        ``pending`` in the stats payload, while the latency percentiles
        answer the question admission control cannot — whether serving
        concurrently made the *work itself* slower (lock contention).
        """
        assert self._loop is not None and self._shutdown is not None
        if self._shutdown.is_set():
            raise Overloaded("server is draining; request not admitted")
        if self._pending >= self.max_inflight + self.queue_depth:
            raise Overloaded(
                f"admission queue full ({self.max_inflight} in flight + "
                f"{self.queue_depth} queued); retry later"
            )
        self._pending += 1
        try:
            started = time.perf_counter()
            prepared = self.service.prepare(document)
            prepare_seconds = time.perf_counter() - started

            def _execute():
                t0 = time.perf_counter()
                response = prepared.execute()
                return response, time.perf_counter() - t0

            response, execute_seconds = await self._loop.run_in_executor(
                self._executor, _execute
            )
            return response, prepare_seconds + execute_seconds
        finally:
            self._pending -= 1

    def _control(self, op: str, request_id: Any) -> dict:
        if op == "stats":
            payload: dict[str, Any] = {
                "stats": self.stats.to_dict(),
                "row_store": row_store.ROW_STORE.stats(),
                "pending": self._pending,
                "max_inflight": self.max_inflight,
                "queue_depth": self.queue_depth,
            }
        elif op == "ping":
            payload = {"ok": True}
        elif op == "shutdown":
            self.request_shutdown()
            payload = {"ok": True, "draining": True}
        else:
            payload = error_payload(
                RequestValidationError(f"unknown op {op!r}", field="op")
            )
        return _with_id(payload, request_id)

    async def _write(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, payload: dict
    ) -> None:
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        async with lock:
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass  # client went away mid-answer; nothing to do

    # ------------------------------------------------------------------ #
    # HTTP shim
    # ------------------------------------------------------------------ #
    async def _handle_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One-shot HTTP exchange: GET /stats or POST /submit, then close."""
        try:
            method, target, _ = first.decode("latin-1").split(" ", 2)
        except ValueError:
            await self._write_http(writer, 400, error_payload(ValueError("bad request line")))
            return
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"", b"\r\n", b"\n"):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                with contextlib.suppress(ValueError):
                    length = int(value.strip())
        body = await reader.readexactly(length) if length > 0 else b""

        if method in ("GET", "HEAD") and target.split("?", 1)[0] == "/stats":
            await self._write_http(writer, 200, self._control("stats", None))
            return
        if method == "POST" and target.split("?", 1)[0] == "/submit":
            request_id: Any = None
            try:
                document: Any = json.loads(body.decode("utf-8", "replace"))
                if isinstance(document, dict):
                    request_id = document.pop("id", None)
                response, seconds = await self._submit(document)
            except Overloaded as exc:
                self.stats.rejected += 1
                await self._write_http(writer, 429, _with_id(error_payload(exc), request_id))
                return
            except Exception as exc:  # noqa: BLE001
                self.stats.errors += 1
                await self._write_http(writer, 400, _with_id(error_payload(exc), request_id))
                return
            await self._write_http(writer, 200, _with_id(response.to_dict(), request_id))
            self.stats.record(seconds)
            return
        await self._write_http(
            writer, 404, error_payload(LookupError(f"no route {method} {target}"))
        )

    async def _write_http(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found", 429: "Too Many Requests"}
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"content-type: application/json\r\n"
            f"content-length: {len(data)}\r\n"
            f"connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + data)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass


class ServerThread:
    """Run a :class:`RiskServer` on a dedicated event-loop thread.

    For tests, benchmarks and in-process embedding next to blocking client
    code — the context manager guarantees the drain happened on exit::

        with ServerThread(service, max_inflight=4) as handle:
            client = ServeClient(handle.server.host, handle.server.port)
    """

    def __init__(self, service: RiskService, **kwargs: Any) -> None:
        self.server = RiskServer(service, **kwargs)
        self._thread: threading.Thread | None = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.server.run(install_signal_handlers=False)),
            name="are-server",
            daemon=True,
        )
        self._thread.start()
        if not self.server.started.wait(timeout=10.0):
            raise RuntimeError("server did not bind within 10s")
        return self

    def stop(self) -> None:
        self.server.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


class ServeClient:
    """Blocking NDJSON client for a :class:`RiskServer`.

    ``send``/``recv`` are split so callers can pipeline: queue many request
    lines, then collect the answers (match them by ``"id"`` — the server
    responds in completion order, not submission order).
    """

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def send(self, document: Mapping[str, Any]) -> None:
        self._file.write((json.dumps(dict(document)) + "\n").encode("utf-8"))
        self._file.flush()

    def recv(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(self, document: Mapping[str, Any]) -> dict:
        self.send(document)
        return self.recv()

    def close(self) -> None:
        with contextlib.suppress(Exception):
            self._file.close()
        with contextlib.suppress(Exception):
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
