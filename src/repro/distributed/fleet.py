"""The fleet coordinator: shard queue out, PartialResult stream in.

:class:`FleetEngine` drives a set of :class:`~repro.distributed.worker.FleetWorker`
processes through one analysis.  The trial domain is partitioned into
disjoint shards on a shared **work-stealing queue**: one coordinator thread
per worker pulls the next shard, sends a ``run_shard`` control line, and
folds the streamed :class:`~repro.core.results.PartialResult` straight into
one shared :class:`~repro.core.results.ResultAccumulator` as it arrives —
merge overlaps compute; there is no barrier, and a fast worker simply
prices more shards than a slow one.

Failure semantics (the part a fleet actually needs):

* **timeout + one retry** — a request that times out (or whose connection
  drops) is retried once against the same worker over a fresh connection;
* **death → reassignment** — a worker that fails its retry is marked dead
  and its shard goes back on the queue for the survivors; any ranges still
  uncovered after the threads drain (the race where the queue emptied
  before the death was noticed) are recovered explicitly from
  ``ResultAccumulator.missing_ranges()`` and priced on surviving workers;
* **total loss** — if every worker dies, :class:`FleetError` names the
  missing trial ranges.

Because shard merges are pure column placement, none of this scheduling —
work stealing, retries, reassignment order — can change a single bit of the
final result; the conformance suite pins the merged output to the
monolithic run on every backend.
"""

from __future__ import annotations

import pickle
import socket
import threading
from collections import deque
from typing import Any, Callable, List, Mapping, Sequence, Tuple

from repro.core.config import EngineConfig
from repro.core.results import PartialResult, ResultAccumulator
from repro.parallel.partitioner import TrialRange, WorkloadShape, shard_partition
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.service.digests import plan_relevant_config, program_digest, yet_digest
from repro.utils.timing import Timer
from repro.yet.io import YetShardReader, yet_to_bytes
from repro.yet.stores import InMemoryYetStore, LocalDirYetStore
from repro.yet.table import YearEventTable
from repro.distributed.protocol import (
    MissingArtifact,
    WorkerError,
    parse_address,
    recv_frame,
    send_frame,
)

__all__ = ["FleetEngine", "FleetError", "WorkerClient", "probe_worker"]


class FleetError(RuntimeError):
    """The fleet could not complete the analysis (all workers lost)."""


class WorkerClient:
    """Blocking framed-NDJSON client for one fleet worker.

    One coordinator thread owns one client; the class is not thread-safe.
    ``timeout`` bounds every socket operation — connect, send, and the wait
    for a shard's result — so a hung worker surfaces as ``socket.timeout``
    rather than a stuck fleet.
    """

    def __init__(self, address: str | Tuple[str, int], timeout: float = 120.0) -> None:
        self.host, self.port = parse_address(address)
        self.address = f"{self.host}:{self.port}"
        self.timeout = float(timeout)
        self._sock: socket.socket | None = None
        self._stream = None

    # ------------------------------------------------------------------ #
    # Connection lifecycle
    # ------------------------------------------------------------------ #
    def connect(self) -> "WorkerClient":
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
            sock.settimeout(self.timeout)
            self._sock = sock
            self._stream = sock.makefile("rwb")
        return self

    def reconnect(self) -> "WorkerClient":
        self.close()
        return self.connect()

    def close(self) -> None:
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass
            self._stream = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "WorkerClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def request(
        self, document: Mapping[str, Any], payload: bytes | None = None
    ) -> Tuple[dict, bytes | None]:
        """One request/response exchange; raises on structured errors.

        ``MissingArtifact`` is re-raised as its own type (the caller ships
        and resends); every other ``{"error": ...}`` reply becomes a
        :class:`WorkerError` carrying the remote exception's class name.
        """
        self.connect()
        assert self._stream is not None
        send_frame(self._stream, document, payload)
        reply, reply_payload = recv_frame(self._stream)
        error = reply.get("error")
        if error:
            if error.get("type") == "MissingArtifact":
                raise MissingArtifact(error.get("missing") or {})
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


class _WorkerState:
    """One worker's coordinator-side bookkeeping."""

    def __init__(self, client: WorkerClient) -> None:
        self.client = client
        self.alive = True
        self.shards_done = 0
        self.shipped_program = False
        self.shipped_yet = False


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
        self.timeout = float(timeout)
        self._states = [
            _WorkerState(WorkerClient(address, timeout=self.timeout))
            for address in workers
        ]

    @property
    def worker_addresses(self) -> List[str]:
        return [state.client.address for state in self._states]

    def close(self) -> None:
        for state in self._states:
            state.client.close()

    def __enter__(self) -> "FleetEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The run
    # ------------------------------------------------------------------ #
    def run(
        self,
        program: ReinsuranceProgram | Layer,
        source: YearEventTable | YetShardReader,
        n_shards: int = 0,
        on_partial: Callable[[PartialResult], None] | None = None,
    ):
        """Price ``program`` over ``source`` on the fleet; exact merge.

        ``source`` is an in-memory YET (shipped to each worker once,
        digest-cached there) or a :class:`~repro.yet.io.YetShardReader`
        whose store directory every worker can reach on a shared
        filesystem (workers mmap it independently and materialise only
        their own shards).  ``n_shards`` defaults to two shards per worker
        (work stealing needs more shards than workers to balance), or the
        config's ``trial_shards`` when that is larger.  ``on_partial`` is
        called (on a coordinator thread) after each block is accumulated —
        the hook the progress displays and the worker-kill drill use.
        """
        program = ReinsuranceProgram.wrap(program)
        prog_digest = program_digest(program)
        config_fields = plan_relevant_config(self.config)
        yet_ref, yet_bytes_factory, n_trials, mean_events = self._describe_source(source)

        count = n_shards or max(self.config.trial_shards, 2 * len(self._states))
        shard_queue: "deque[TrialRange]" = deque(shard_partition(n_trials, count))
        total_shards = len(shard_queue)

        wall = Timer().start()
        accumulator = ResultAccumulator(
            program.n_layers, n_trials, row_names=program.layer_names
        )
        lock = threading.Lock()
        program_bytes: List[bytes | None] = [None]  # pickled lazily, at most once
        retries = [0]
        ship = _ArtifactShipper(
            prog_digest, program, program_bytes, yet_ref, yet_bytes_factory
        )

        def worker_loop(state: _WorkerState) -> None:
            while True:
                with lock:
                    if not shard_queue:
                        return
                    trials = shard_queue.popleft()
                try:
                    partial = self._run_shard_with_retry(
                        state, trials, prog_digest, yet_ref, config_fields, ship
                    )
                except _WorkerLost:
                    with lock:
                        state.alive = False
                        shard_queue.append(trials)
                        retries[0] += 1
                    return
                with lock:
                    accumulator.add(partial)
                    state.shards_done += 1
                if on_partial is not None:
                    on_partial(partial)

        threads = [
            threading.Thread(
                target=worker_loop,
                args=(state,),
                name=f"fleet-{state.client.address}",
                daemon=True,
            )
            for state in self._states
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        reassigned = self._reassign_missing(
            accumulator, prog_digest, yet_ref, config_fields, ship, on_partial
        )

        gaps = accumulator.missing_ranges()
        if gaps:
            ranges = ", ".join(f"[{g.start}, {g.stop})" for g in gaps)
            raise FleetError(
                f"fleet lost trial ranges {ranges}: no surviving worker "
                f"(workers: {', '.join(self.worker_addresses)})"
            )

        shape = WorkloadShape(
            n_trials=n_trials,
            events_per_trial=max(mean_events, 1e-9),
            n_elts=max(int(round(program.mean_elts_per_layer)), 1),
            n_layers=program.n_layers,
        )
        dead = [s.client.address for s in self._states if not s.alive]
        return accumulator.finalize(
            self.config.backend,
            wall_seconds=wall.stop(),
            workload_shape=shape,
            details={
                "fleet": {
                    "workers": self.worker_addresses,
                    "shards_per_worker": {
                        s.client.address: s.shards_done for s in self._states
                    },
                    "n_shards": total_shards,
                    "dead_workers": dead,
                    "requeued_shards": retries[0],
                    "reassigned_ranges": reassigned,
                },
            },
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _describe_source(self, source):
        """``(ref, inline-bytes factory, n_trials, mean events/trial)``."""
        if isinstance(source, YearEventTable):
            digest = yet_digest(source)
            ref = {"kind": InMemoryYetStore.kind, "digest": digest}
            return ref, (lambda: yet_to_bytes(source)), source.n_trials, (
                source.mean_events_per_trial
            )
        if isinstance(source, YetShardReader):
            ref = {"kind": LocalDirYetStore.kind, "path": str(source.path.resolve())}
            return ref, None, source.n_trials, source.mean_events_per_trial
        raise TypeError(
            "source must be a YearEventTable or a YetShardReader, got "
            f"{type(source).__name__}"
        )

    def _run_shard_with_retry(
        self,
        state: _WorkerState,
        trials: TrialRange,
        prog_digest: str,
        yet_ref: Mapping[str, Any],
        config_fields: Mapping[str, Any],
        ship: "_ArtifactShipper",
    ) -> PartialResult:
        """One shard on one worker: ship-on-missing, then timeout + one retry."""
        for attempt in (0, 1):
            try:
                try:
                    return state.client.run_shard(
                        prog_digest, yet_ref, config_fields, trials
                    )
                except MissingArtifact as exc:
                    # Not a failure: ship what the worker asked for, resend.
                    ship.ship(state, exc.missing)
                    return state.client.run_shard(
                        prog_digest, yet_ref, config_fields, trials
                    )
            except (socket.timeout, ConnectionError, OSError, EOFError):
                if attempt == 1:
                    break
                try:
                    state.client.reconnect()
                except OSError:
                    break
                # A fresh connection forgets nothing worker-side (the caches
                # are per-worker, not per-connection), so the retry is warm.
                continue
            except WorkerError:
                # The worker is alive but rejected the request — that is a
                # programming error, not a transport failure; surface it.
                raise
        state.client.close()
        raise _WorkerLost(state.client.address)

    def _reassign_missing(
        self,
        accumulator: ResultAccumulator,
        prog_digest: str,
        yet_ref: Mapping[str, Any],
        config_fields: Mapping[str, Any],
        ship: "_ArtifactShipper",
        on_partial: Callable[[PartialResult], None] | None,
    ) -> int:
        """Price any still-missing ranges on surviving workers.

        Covers the drain race: a worker can die after the queue emptied, so
        its requeued shard was never picked up.  ``missing_ranges()`` is the
        ground truth of what remains — the reassignment loop prices each gap
        on the next surviving worker until the domain is tiled or no
        survivors remain.
        """
        reassigned = 0
        while True:
            gaps = accumulator.missing_ranges()
            survivors = [s for s in self._states if s.alive]
            if not gaps or not survivors:
                return reassigned
            progressed = False
            for trials in gaps:
                state = next((s for s in self._states if s.alive), None)
                if state is None:
                    return reassigned
                try:
                    partial = self._run_shard_with_retry(
                        state, trials, prog_digest, yet_ref, config_fields, ship
                    )
                except _WorkerLost:
                    state.alive = False
                    continue
                accumulator.add(partial)
                if on_partial is not None:
                    on_partial(partial)
                reassigned += 1
                progressed = True
            if not progressed:
                return reassigned


class _WorkerLost(RuntimeError):
    """A worker failed its retry and is considered dead (internal signal)."""


class _ArtifactShipper:
    """Ships missing artifacts to a worker, serialising the program once."""

    def __init__(
        self,
        prog_digest: str,
        program: ReinsuranceProgram,
        program_bytes: List[bytes | None],
        yet_ref: Mapping[str, Any],
        yet_bytes_factory: Callable[[], bytes] | None,
    ) -> None:
        self._prog_digest = prog_digest
        self._program = program
        self._program_bytes = program_bytes
        self._yet_ref = yet_ref
        self._yet_bytes_factory = yet_bytes_factory
        self._yet_bytes: bytes | None = None
        self._lock = threading.Lock()

    def ship(self, state: _WorkerState, missing: Mapping[str, str]) -> None:
        if "program" in missing:
            with self._lock:
                if self._program_bytes[0] is None:
                    self._program_bytes[0] = pickle.dumps(self._program)
                payload = self._program_bytes[0]
            state.client.put_program(self._prog_digest, payload)
            state.shipped_program = True
        if "yet" in missing:
            if self._yet_bytes_factory is None:
                raise WorkerError(
                    f"worker {state.client.address} reports the YET store "
                    f"{self._yet_ref} missing, but it is a filesystem reference "
                    "the coordinator cannot ship — check the shared mount"
                )
            with self._lock:
                if self._yet_bytes is None:
                    self._yet_bytes = self._yet_bytes_factory()
                payload = self._yet_bytes
            state.client.put_yet(str(self._yet_ref.get("digest")), payload)
            state.shipped_yet = True
