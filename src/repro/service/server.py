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

Protocol (one JSON object per line, responses in completion order):

* a request document may carry an ``"id"`` — it is echoed verbatim in the
  response line, so clients can pipeline many requests per connection and
  match answers;
* a control line carrying ``"nbytes": N`` is followed by exactly ``N`` raw
  bytes on the same stream, in both directions (:func:`send_frame` /
  :func:`recv_frame` are the blocking client side);
* a line longer than :data:`MAX_LINE_BYTES`, or a bad ``nbytes``, is
  answered with a structured ``FrameError`` and the connection closes — the
  stream cannot be resynchronised; so is any ``nbytes`` sent to a role that
  takes no payloads (:attr:`RiskServer.accepts_payloads`, off for the
  service role), whose body is never read; bad JSON or a non-object line is
  answered with an error and the connection keeps serving;
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

Roles: the server above is the *service* role.  A role is a subclass that
overrides three hooks — :meth:`RiskServer._control` (inline ops, on the
loop), :meth:`RiskServer._prepare` (validation on the loop, returning the
call the executor runs) and :meth:`RiskServer._answer` (the reply and its
payload, on the loop).  The fleet worker
(:mod:`repro.distributed.worker`) is the second role, so both share one
listener, one admission queue, one drain and one error shape.

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
from typing import Any, BinaryIO, Callable, Mapping, Tuple

from repro.core import row_store
from repro.service.request import RequestValidationError
from repro.service.response import error_payload
from repro.service.service import RiskService

__all__ = ["MAX_LINE_BYTES", "FrameError", "Overloaded", "RiskServer", "ServeClient",
           "ServerThread", "ServerStats", "recv_frame", "send_frame"]

#: Latency reservoir bound — old samples are folded away beyond this.
_MAX_LATENCY_SAMPLES = 65536

#: Longest control line a connection may send (the stream reader's limit).
MAX_LINE_BYTES = 1 << 16

#: Refuse to frame payloads beyond this (a corrupted length prefix must not
#: turn into an attempted multi-gigabyte allocation).
MAX_PAYLOAD_BYTES = 1 << 34


class Overloaded(RuntimeError):
    """Admission control rejected the request (its class name is the wire
    ``"type"`` of the structured rejection — ``{"error": {"type":
    "Overloaded"}}``)."""


class FrameError(ValueError):
    """The stream cannot be framed past this point (an over-long line or a
    bad ``nbytes``): the server answers it, then closes the connection."""


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
def _control_line(document: Mapping[str, Any], payload: bytes | None) -> bytes:
    """One encoded control line; ``payload`` sets its ``"nbytes"`` key.

    A document must never carry that key itself — the framing owns it.
    """
    doc = dict(document)
    if payload is not None:
        doc["nbytes"] = len(payload)
    elif "nbytes" in doc:
        raise ValueError("'nbytes' is reserved for the framing layer")
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def _decode_line(line: bytes) -> dict:
    """A control line's JSON object (``ValueError`` for anything else)."""
    document = json.loads(line.decode("utf-8", "replace"))
    if not isinstance(document, dict):
        raise ValueError(f"expected a JSON object control line, got {type(document).__name__}")
    return document


def _payload_length(document: Mapping[str, Any]) -> int | None:
    """The validated ``nbytes`` of a decoded control line (``None`` if absent)."""
    nbytes = document.get("nbytes")
    if nbytes is None:
        return None
    if isinstance(nbytes, bool) or not isinstance(nbytes, int):
        raise FrameError(f"'nbytes' must be an integer, got {nbytes!r}")
    if not 0 <= nbytes <= MAX_PAYLOAD_BYTES:
        raise FrameError(f"unreasonable payload length {nbytes}")
    return nbytes


def send_frame(
    stream: BinaryIO, document: Mapping[str, Any], payload: bytes | None = None
) -> None:
    """Write one control line (and its binary payload, if any) and flush."""
    stream.write(_control_line(document, payload))
    if payload is not None:
        stream.write(payload)
    stream.flush()


def recv_frame(stream: BinaryIO) -> Tuple[dict, bytes | None]:
    """Read one control line and its payload; ``ConnectionError`` on EOF."""
    line = stream.readline()
    if not line:
        raise ConnectionError("peer closed the connection")
    document = _decode_line(line)
    nbytes = _payload_length(document)
    if nbytes is None:
        return document, None
    payload = stream.read(nbytes)
    if payload is None or len(payload) != nbytes:
        raise ConnectionError(
            f"peer closed mid-payload ({0 if payload is None else len(payload)}"
            f"/{nbytes} bytes)"
        )
    return document, payload


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


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """The next line, or :class:`FrameError` past :data:`MAX_LINE_BYTES`."""
    try:
        return await reader.readline()
    except ValueError:  # asyncio's limit overrun; the buffer is discarded
        raise FrameError(f"control line exceeds {MAX_LINE_BYTES} bytes") from None


class RiskServer:
    """Asyncio TCP/NDJSON (+ HTTP shim) server over one warm RiskService.

    Parameters
    ----------
    service:
        The warm service to answer from (a role's own state, for a role).
        The server never closes it — the caller owns its lifetime (and its
        /dev/shm workspaces).
    host, port:
        Listen address; port 0 binds an ephemeral port (read the bound one
        back from :attr:`port` after :meth:`start`).
    max_inflight:
        Executor width — requests executing concurrently.
    queue_depth:
        Requests allowed to wait beyond the executing ones before
        admission control rejects with ``Overloaded``.
    """

    #: Whether a control line may carry ``nbytes`` of payload.  The service
    #: role takes none, so a body is refused before a byte of it is read;
    #: the fleet worker role sets this (its ``put_*`` ops ship artifacts).
    accepts_payloads = False

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
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
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
            try:
                line = await _read_line(reader)
                if line and _looks_like_http(line):
                    await self._handle_http(line, reader, writer)
                    return
                while line:
                    # Decoded here, not in the task: a payload must be read
                    # off the stream before the next control line is.
                    if line.strip():
                        try:
                            document = _decode_line(line)
                        except ValueError as exc:
                            self.stats.errors += 1
                            await self._write(writer, write_lock, error_payload(exc))
                        else:
                            nbytes = _payload_length(document)
                            if nbytes is not None and not self.accepts_payloads:
                                # Refused unread: this role never buffers a body.
                                raise FrameError("this server takes no binary payloads")
                            payload = None if nbytes is None else await reader.readexactly(nbytes)
                            task = asyncio.ensure_future(
                                self._serve(document, payload, writer, write_lock)
                            )
                            self._tasks.add(task)
                            conn_tasks.add(task)
                            task.add_done_callback(self._tasks.discard)
                            task.add_done_callback(conn_tasks.discard)
                    line = await _read_line(reader)
            except FrameError as exc:
                # The stream cannot be resynchronised: answer, then close.
                self.stats.errors += 1
                await self._write(writer, write_lock, error_payload(exc))
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

    async def _serve(
        self,
        document: dict,
        payload: bytes | None,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id = document.pop("id", None)
        op = document.get("op")
        if op is not None:
            reply = self._control(str(op))
            if reply is not None:
                await self._write(writer, write_lock, _with_id(reply, request_id))
                return
        try:
            result, seconds = await self._submit(document, payload)
            reply, reply_payload = self._answer(result)
        except Overloaded as exc:
            self.stats.rejected += 1
            await self._write(writer, write_lock, _with_id(error_payload(exc), request_id))
            return
        except Exception as exc:  # noqa: BLE001 - the loop must survive any request
            self.stats.errors += 1
            await self._write(writer, write_lock, _with_id(error_payload(exc), request_id))
            return
        await self._write(writer, write_lock, _with_id(reply, request_id), reply_payload)
        self.stats.record(seconds)

    async def _submit(self, document: Any, payload: bytes | None = None):
        """Admit, prepare on the loop, execute on the pool.

        Returns ``(result, seconds)`` where ``seconds`` is the processing
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
            call = self._prepare(document, payload)
            prepare_seconds = time.perf_counter() - started

            def _execute():
                t0 = time.perf_counter()
                result = call()
                return result, time.perf_counter() - t0

            result, execute_seconds = await self._loop.run_in_executor(
                self._executor, _execute
            )
            return result, prepare_seconds + execute_seconds
        finally:
            self._pending -= 1

    # ------------------------------------------------------------------ #
    # Role hooks (the service role; the fleet worker overrides all three)
    # ------------------------------------------------------------------ #
    def _control(self, op: str) -> dict | None:
        """Answer an ``op`` inline on the loop; ``None`` admits the document."""
        if op == "stats":
            return {
                "stats": self.stats.to_dict(),
                "row_store": row_store.ROW_STORE.stats(),
                "pending": self._pending,
                "max_inflight": self.max_inflight,
                "queue_depth": self.queue_depth,
            }
        if op == "ping":
            return {"ok": True}
        if op == "shutdown":
            self.request_shutdown()
            return {"ok": True, "draining": True}
        return error_payload(RequestValidationError(f"unknown op {op!r}", field="op"))

    def _prepare(self, document: Any, payload: bytes | None) -> Callable[[], Any]:
        """Validate on the loop; return the call the executor runs."""
        return self.service.prepare(document).execute

    def _answer(self, result: Any) -> Tuple[dict, bytes | None]:
        """The reply document (and payload) for an executed call, on the loop."""
        return result.to_dict(), None

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        reply: dict,
        payload: bytes | None = None,
    ) -> None:
        data = _control_line(reply, payload)
        async with lock:
            try:
                writer.write(data)
                if payload is not None:
                    writer.write(payload)
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
            header = await _read_line(reader)
            if header in (b"", b"\r\n", b"\n"):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                with contextlib.suppress(ValueError):
                    length = int(value.strip())
        body = await reader.readexactly(length) if length > 0 else b""

        if method in ("GET", "HEAD") and target.split("?", 1)[0] == "/stats":
            await self._write_http(writer, 200, self._control("stats"))
            return
        if method == "POST" and target.split("?", 1)[0] == "/submit":
            request_id: Any = None
            try:
                document: Any = json.loads(body.decode("utf-8", "replace"))
                if isinstance(document, dict):
                    request_id = document.pop("id", None)
                result, seconds = await self._submit(document)
                reply, _ = self._answer(result)
            except Overloaded as exc:
                self.stats.rejected += 1
                await self._write_http(writer, 429, _with_id(error_payload(exc), request_id))
                return
            except Exception as exc:  # noqa: BLE001
                self.stats.errors += 1
                await self._write_http(writer, 400, _with_id(error_payload(exc), request_id))
                return
            await self._write_http(writer, 200, _with_id(reply, request_id))
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

    def __init__(self, service: RiskService | RiskServer, **kwargs: Any) -> None:
        # A role's server (e.g. the fleet worker's) arrives built; run it as is.
        self.server = service if isinstance(service, RiskServer) else RiskServer(service, **kwargs)
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    def _run(self) -> None:
        try:
            asyncio.run(self.server.run(install_signal_handlers=False))
        except BaseException as exc:
            self._error = exc
            if self.server.started.is_set():
                raise  # a failure after the bind still reaches stderr

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, name="are-server", daemon=True)
        self._thread.start()
        deadline = time.monotonic() + 10.0
        while not self.server.started.wait(timeout=0.05):
            if self._error is not None:
                raise self._error  # the bind's own OSError (e.g. EADDRINUSE)
            if not self._thread.is_alive() or time.monotonic() > deadline:
                raise RuntimeError(f"server did not bind {self.server.host}:{self.server.port}")
        return self

    def join(self, timeout: float | None = None) -> bool:
        """Wait for the server to drain and exit; ``True`` once it has."""
        if self._thread is not None:
            self._thread.join(timeout)
        return self._thread is None or not self._thread.is_alive()

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
