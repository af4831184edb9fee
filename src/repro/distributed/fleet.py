"""The fleet coordinator: the shard driver, with its blocks priced on sockets.

:class:`FleetEngine` runs one analysis across a set of
:class:`~repro.distributed.worker.FleetWorker` processes.  The fleet is one
more parallel mapping of the same algorithm: the program is lowered to an
:class:`~repro.core.plan.ExecutionPlan` and priced by
:func:`repro.core.driver.run_plan` like every backend, but the run's ``map``
sends the trial shards to workers and reads no shard itself.  The map holds
the fleet's scheduling: **work stealing** (one thread per worker over a
shared deque, blocks streamed back to the calling thread as they arrive),
**ship on demand** (a ``MissingArtifact`` reply ships the program, and an
inline YET, once), **timeout + one retry** on a fresh connection, and
**death → requeue** (idle threads wait until every shard is priced or no
worker survives, so a survivor always picks a requeued shard up).  Any
other failure, such as a structured worker error, is re-raised on the
calling thread; if every worker dies, :class:`FleetError` names the
unpriced trial ranges.

Shard merges are pure column placement, so none of this scheduling can
change a single bit of the result; the conformance suite pins the fleet's
output to the monolithic run on every backend.
"""

from __future__ import annotations

import contextlib
import pickle
import queue
import socket
import threading
from collections import deque
from functools import partial
from typing import Any, Callable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.config import EngineConfig
from repro.core.driver import ShardPricer, ShardRun, run_plan
from repro.core.engine import _BACKEND_CLASSES
from repro.core.plan import ExecutionPlan, PlanBuilder
from repro.core.results import EngineResult, PartialResult
from repro.parallel.partitioner import TrialRange
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.service.digests import plan_relevant_config, program_digest, yet_digest
from repro.service.server import Overloaded, recv_frame, send_frame
from repro.utils.timing import PhaseTimer
from repro.yet.io import YetShardReader, yet_to_bytes
from repro.yet.stores import InMemoryYetStore, LocalDirYetStore
from repro.yet.table import YearEventTable

__all__ = ["FleetEngine", "FleetError", "MissingArtifact", "WorkerClient", "WorkerError",
           "probe_worker"]


class FleetError(RuntimeError):
    """The fleet could not complete the analysis (all workers lost)."""


class MissingArtifact(LookupError):
    """The worker lacks an artifact the request references by digest.

    ``missing`` maps artifact kind (``"program"`` / ``"yet"``) to the
    missing digest.  On the wire this becomes ``{"error": {"type":
    "MissingArtifact", "missing": {...}}}``; the coordinator's reaction is
    to ship the artifacts and resend, not to fail.
    """

    def __init__(self, missing: Mapping[str, str]) -> None:
        self.missing = dict(missing)
        super().__init__(
            "worker is missing artifacts: "
            + ", ".join(f"{kind} {digest[:12]}…" for kind, digest in self.missing.items())
        )


class WorkerError(RuntimeError):
    """A worker answered a structured error (other than a missing artifact
    or an admission rejection).

    Attributes
    ----------
    type:
        The remote exception's class name from the error payload.
    """

    def __init__(self, message: str, type: str = "WorkerError") -> None:
        super().__init__(message)
        self.type = type


def parse_address(address: str | Tuple[str, int]) -> Tuple[str, int]:
    """``"host:port"`` (or an already-split pair) → ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host, int(port)


def format_address(host: str, port: int) -> str:
    """The canonical ``"host:port"`` form of a worker address."""
    return f"{host}:{port}"


class WorkerClient:
    """Blocking framed-NDJSON client for one fleet worker.

    One coordinator thread owns one client; the class is not thread-safe.
    ``timeout`` bounds every socket operation — connect, send, and the wait
    for a shard's result — so a hung worker surfaces as ``socket.timeout``
    rather than a stuck fleet.
    """

    def __init__(self, address: str | Tuple[str, int], timeout: float = 120.0) -> None:
        self.host, self.port = parse_address(address)
        self.address = format_address(self.host, self.port)
        self.timeout = float(timeout)
        self._sock: socket.socket | None = None
        self._stream = None

    def connect(self) -> "WorkerClient":
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
            sock.settimeout(self.timeout)
            # A control line and its payload go out as two sends: without
            # this, Nagle holds the second for the worker's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._stream = sock.makefile("rwb")
        return self

    def reconnect(self) -> "WorkerClient":
        self.close()
        return self.connect()

    def close(self) -> None:
        for handle in (self._stream, self._sock):
            if handle is not None:
                with contextlib.suppress(OSError):
                    handle.close()
        self._stream = self._sock = None

    def __enter__(self) -> "WorkerClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(
        self, document: Mapping[str, Any], payload: bytes | None = None
    ) -> Tuple[dict, bytes | None]:
        """One request/response exchange; raises on structured errors.

        ``MissingArtifact`` is re-raised as its own type (the caller ships
        and resends), and so is an admission rejection,
        :class:`~repro.service.server.Overloaded` (the caller retries);
        every other ``{"error": ...}`` reply becomes a :class:`WorkerError`
        carrying the remote exception's class name.
        """
        self.connect()
        assert self._stream is not None
        send_frame(self._stream, document, payload)
        reply, reply_payload = recv_frame(self._stream)
        error = reply.get("error")
        if error:
            if error.get("type") == "MissingArtifact":
                raise MissingArtifact(error.get("missing") or {})
            if error.get("type") == "Overloaded":
                raise Overloaded(str(error.get("message")))
            raise WorkerError(
                str(error.get("message")), type=str(error.get("type", "WorkerError"))
            )
        return reply, reply_payload

    def ping(self) -> dict:
        return self.request({"op": "ping"})[0]

    def status(self) -> dict:
        return self.request({"op": "status"})[0]

    def put_program(self, digest: str, payload: bytes) -> dict:
        return self.request({"op": "put_program", "digest": digest}, payload)[0]

    def put_yet(self, digest: str, payload: bytes) -> dict:
        return self.request({"op": "put_yet", "digest": digest}, payload)[0]

    def run_shard(
        self,
        program_digest: str,
        yet_ref: Mapping[str, Any],
        config_fields: Mapping[str, Any],
        trials: TrialRange,
    ) -> PartialResult:
        reply, payload = self.request(
            {
                "op": "run_shard",
                "program": program_digest,
                "yet": dict(yet_ref),
                "config": dict(config_fields),
                "trials": [trials.start, trials.stop],
            }
        )
        if payload is None:
            raise WorkerError(f"worker {self.address} answered run_shard without a payload")
        return PartialResult.from_bytes(payload)

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})[0]


def probe_worker(address: str, timeout: float = 2.0) -> dict:
    """Reachability probe of one worker address (``are backends`` row).

    Never raises: an unreachable or misbehaving worker reports
    ``{"reachable": False, "error": ...}``.
    """
    try:
        with WorkerClient(address, timeout=timeout) as client:
            reply = client.ping()
        return {"reachable": True, "worker": reply.get("worker")}
    except Exception as exc:  # noqa: BLE001 - a probe must never raise
        return {"reachable": False, "error": str(exc)}


class FleetEngine:
    """Coordinate one analysis across a fleet of socket workers.

    Parameters
    ----------
    workers:
        Worker addresses (``"host:port"`` strings or ``(host, port)``
        pairs).  At least one is required.
    config:
        The engine config whose plan-relevant fields every worker executes
        under (shipped with each shard request) — and whose backend names
        the merged result.
    timeout:
        Per-request socket timeout; a request that exceeds it is retried
        once on a fresh connection before the worker is declared dead.
    """

    def __init__(
        self,
        workers: Sequence[str | Tuple[str, int]],
        config: EngineConfig | None = None,
        timeout: float = 120.0,
    ) -> None:
        if not workers:
            raise ValueError("a fleet needs at least one worker address")
        self.config = config if config is not None else EngineConfig()
        self._clients = [WorkerClient(address, timeout=timeout) for address in workers]

    def close(self) -> None:
        for client in self._clients:
            client.close()

    def __enter__(self) -> "FleetEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        program: ReinsuranceProgram | Layer,
        source: YearEventTable | YetShardReader,
        n_shards: int = 0,
        on_partial: Callable[[PartialResult], None] | None = None,
        trials: TrialRange | None = None,
    ) -> EngineResult:
        """Price ``program`` over ``source`` on the fleet; exact merge.

        ``source`` is an in-memory YET (shipped to each worker once,
        digest-cached there) or a :class:`~repro.yet.io.YetShardReader`
        whose store directory every worker can reach on a shared
        filesystem (workers mmap it independently; the coordinator reads no
        shard).  ``n_shards`` defaults to two shards per worker (work
        stealing needs more shards than workers), or the config's
        ``trial_shards`` when larger.  ``on_partial`` is called on the
        calling thread after each block is accumulated.  ``trials`` prices
        only that (globally indexed) range, as one block: the result holds
        its columns, as a :meth:`~repro.core.plan.ExecutionPlan.restrict`
        child's does.
        """
        program = ReinsuranceProgram.wrap(program)
        run = _FleetRun(self._clients, program, source, self.config, on_partial)
        count = n_shards or max(self.config.trial_shards, 2 * len(self._clients))
        plan = PlanBuilder.from_program(program, source, n_shards=count)
        if trials is not None:
            plan = plan.restrict(trials)
        return run_plan(plan, self.config, _FleetPricer(self.config, run))


class _FleetPricer(ShardPricer):
    """One fleet run as a backend: ``prepare`` hands the driver its remote map."""

    def __init__(self, config: EngineConfig, run: "_FleetRun") -> None:
        super().__init__(config)
        self.name = config.backend
        # The workers price under this backend, so it decides the fused path.
        self.fuses = _BACKEND_CLASSES[config.backend].fuses
        self._run = run

    def prepare(self, plan: ExecutionPlan, fused: bool, timer: PhaseTimer) -> ShardRun:
        return self._run


def _yet_ref(source) -> dict:
    """The store reference workers resolve a fleet source by."""
    if isinstance(source, YearEventTable):
        return {"kind": InMemoryYetStore.kind, "digest": yet_digest(source)}
    if isinstance(source, YetShardReader):
        return {"kind": LocalDirYetStore.kind, "path": str(source.path.resolve())}
    kind = type(source).__name__
    raise TypeError(f"source must be a YearEventTable or a YetShardReader, got {kind}")


class _FleetRun(ShardRun):
    """One fleet run: blocks mapped over socket workers, retried and requeued."""

    reads_tables = False

    def __init__(
        self,
        clients: List[WorkerClient],
        program: ReinsuranceProgram,
        source,
        config: EngineConfig,
        on_partial: Callable[[PartialResult], None] | None,
    ) -> None:
        self.clients = clients
        self.program = program
        self.prog_digest = program_digest(program)
        self.config_fields = plan_relevant_config(config)
        self.source = source
        self.yet_ref = _yet_ref(source)
        self.on_partial = on_partial
        self._payloads: dict[str, bytes] = {}
        self._payload_lock = threading.Lock()
        addresses = [client.address for client in clients]
        fleet = {
            "workers": addresses,
            "shards_per_worker": dict.fromkeys(addresses, 0),
            "n_shards": 0,
            "dead_workers": [],
            "requeued_shards": 0,
        }
        super().__init__(None, {"fleet": fleet})  # every window is priced remotely

    def map(
        self, yet, blocks: List[TrialRange], timer: PhaseTimer
    ) -> Iterator[Tuple[TrialRange, np.ndarray, np.ndarray | None]]:
        """Work-steal ``blocks`` over the workers; yield each as it arrives.

        A thread whose worker dies requeues its block and exits; an idle
        thread waits until every block is priced or no worker survives, so a
        survivor always picks a requeued block up.
        """
        fleet = self.details["fleet"]
        fleet["n_shards"] = len(blocks)
        todo, cond, arrived = deque(blocks), threading.Condition(), queue.Queue()
        unpriced, alive, stop = len(blocks), len(self.clients), False

        def next_block() -> TrialRange | None:
            with cond:
                while not todo and unpriced and not stop:
                    cond.wait()
                return None if stop or not todo else todo.popleft()

        def serve(client: WorkerClient) -> None:
            nonlocal unpriced, alive, stop
            try:
                while (block := next_block()) is not None:
                    priced = self._price(client, block)
                    if priced is None:
                        with cond:
                            todo.append(block)
                            alive -= 1
                            fleet["requeued_shards"] += 1
                            fleet["dead_workers"].append(client.address)
                            if not alive:
                                arrived.put(None)  # nobody is left to price ``todo``
                            cond.notify_all()
                        return
                    arrived.put(priced)
                    with cond:
                        unpriced -= 1
                        fleet["shards_per_worker"][client.address] += 1
                        cond.notify_all()
            except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
                with cond:
                    stop = True
                    cond.notify_all()
                arrived.put(exc)

        threads = [
            threading.Thread(target=serve, args=(c,), name=f"fleet-{c.address}", daemon=True)
            for c in self.clients
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in blocks:
                item = arrived.get()
                if isinstance(item, BaseException):
                    raise item
                if item is None:
                    lost = sorted(todo, key=lambda block: block.start)
                    raise FleetError(
                        "fleet lost trial ranges "
                        + ", ".join(f"[{b.start}, {b.stop})" for b in lost)
                        + f": no surviving worker (workers: {', '.join(fleet['workers'])})"
                    )
                yield item.trials, item.losses, item.max_occurrence
                if self.on_partial is not None:
                    self.on_partial(item)
        finally:
            with cond:
                stop = True
                cond.notify_all()
            for thread in threads:
                thread.join()

    def _price(self, client: WorkerClient, block: TrialRange) -> PartialResult | None:
        """One block on one worker: ship-on-missing, then timeout + one retry.

        An ``Overloaded`` rejection takes the timeout path.  ``None`` means
        the worker failed its retry and is considered dead.
        """
        send = partial(
            client.run_shard, self.prog_digest, self.yet_ref, self.config_fields, block
        )
        for attempt in (0, 1):
            try:
                try:
                    return send()
                except MissingArtifact as exc:
                    # Not a failure: ship what the worker asked for, resend.
                    self._ship(client, exc.missing)
                    return send()
            except (socket.timeout, ConnectionError, OSError, EOFError, Overloaded):
                if attempt == 1:
                    break
                try:
                    client.reconnect()
                except OSError:
                    break
                # A fresh connection forgets nothing worker-side (the caches
                # are per-worker, not per-connection), so the retry is warm.
        client.close()
        return None

    def _ship(self, client: WorkerClient, missing: Mapping[str, str]) -> None:
        if "program" in missing:
            payload = self._payload("program", partial(pickle.dumps, self.program))
            client.put_program(self.prog_digest, payload)
        if "yet" in missing:
            if not isinstance(self.source, YearEventTable):
                raise WorkerError(
                    f"worker {client.address} reports the YET store "
                    f"{self.yet_ref} missing, but it is a filesystem reference "
                    "the coordinator cannot ship — check the shared mount"
                )
            payload = self._payload("yet", partial(yet_to_bytes, self.source))
            client.put_yet(self.yet_ref["digest"], payload)

    def _payload(self, name: str, build: Callable[[], bytes]) -> bytes:
        """``build()`` at most once per run, shared by every worker thread."""
        with self._payload_lock:
            if name not in self._payloads:
                self._payloads[name] = build()
            return self._payloads[name]
