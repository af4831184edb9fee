"""Integration tests for the asyncio concurrent serving front end.

The claims pinned here:

* M pipelined clients x K requests each get answers bit-identical to
  serial submission (ids echoed, every request answered exactly once);
* admission control rejects the overflow with a well-formed
  ``{"error": {"type": "Overloaded"}}`` line and keeps serving;
* the HTTP shim answers ``GET /stats`` and ``POST /submit`` on the same
  port as the NDJSON protocol;
* a graceful drain answers everything in flight and, together with
  ``RiskService.close()``, leaves /dev/shm clean;
* the registry lock serializes preset workload generation under
  concurrent submits (no lost or duplicated generation).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import row_store
from repro.core.config import EngineConfig
from repro.service import RiskService
from repro.service.server import (
    MAX_LINE_BYTES,
    Overloaded,
    RiskServer,
    ServeClient,
    ServerThread,
)


def _service(tiny_workload, **kwargs) -> RiskService:
    service = RiskService(EngineConfig(backend="vectorized"), **kwargs)
    service.register_workload("w", tiny_workload)
    return service


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


class TestPipelinedServing:
    def test_pipelined_clients_bit_identical_to_serial(self, tiny_workload):
        """M clients x K pipelined requests == serial submission, bit for bit."""
        documents = [
            {"kind": "run", "program": "w", "quote": True},
            {"kind": "run", "program": "w", "shards": 2},
            {"kind": "run_many", "program": "w", "variants": 2},
        ]
        with _service(tiny_workload) as serial_service:
            serial = [serial_service.submit(dict(doc)).to_dict() for doc in documents]

        n_clients, rounds = 4, 2
        with _service(tiny_workload) as service:
            with ServerThread(service, max_inflight=4, queue_depth=64) as handle:
                host, port = handle.server.host, handle.server.port

                def drive(client_index: int) -> list:
                    with ServeClient(host, port) as client:
                        sent = []
                        for round_index in range(rounds):
                            for doc_index, doc in enumerate(documents):
                                request_id = f"c{client_index}-r{round_index}-d{doc_index}"
                                client.send({**doc, "id": request_id})
                                sent.append((request_id, doc_index))
                        answers = {}
                        for _ in sent:
                            answer = client.recv()
                            answers[answer["id"]] = answer
                        return [(answers[rid], doc_index) for rid, doc_index in sent]

                with ThreadPoolExecutor(max_workers=n_clients) as pool:
                    per_client = list(pool.map(drive, range(n_clients)))

        for client_answers in per_client:
            assert len(client_answers) == rounds * len(documents)
            for answer, doc_index in client_answers:
                expected = serial[doc_index]
                assert "error" not in answer
                assert answer["kind"] == expected["kind"]
                # Bit-identity: the metric floats must match exactly.
                for got, want in zip(answer["results"], expected["results"]):
                    assert got["portfolio_aal"] == want["portfolio_aal"]
                    assert got["n_layers"] == want["n_layers"]
                    assert got["n_trials"] == want["n_trials"]
                for got, want in zip(answer["quotes"], expected["quotes"]):
                    assert got["premium"] == want["premium"]
                    assert got["expected_loss"] == want["expected_loss"]

    def test_concurrent_cold_misses_build_one_plan(self, tiny_workload):
        """Racing first requests share one lowered plan (per-key build locks)."""
        n_clients = 6
        with _service(tiny_workload) as service:
            with ServerThread(service, max_inflight=n_clients) as handle:
                host, port = handle.server.host, handle.server.port
                barrier = threading.Barrier(n_clients)

                def race(_: int) -> dict:
                    with ServeClient(host, port) as client:
                        barrier.wait()
                        return client.request({"kind": "run", "program": "w"})

                with ThreadPoolExecutor(max_workers=n_clients) as pool:
                    answers = list(pool.map(race, range(n_clients)))
            aals = {answer["results"][0]["portfolio_aal"] for answer in answers}
            assert len(aals) == 1
            assert service.cache_stats().entries == 1

    def test_control_ops_and_id_echo(self, tiny_workload):
        with _service(tiny_workload) as service:
            with ServerThread(service) as handle:
                with ServeClient(handle.server.host, handle.server.port) as client:
                    assert client.request({"op": "ping", "id": 9}) == {
                        "ok": True,
                        "id": 9,
                    }
                    client.request({"kind": "run", "program": "w", "id": "x"})
                    stats = client.request({"op": "stats"})
                    assert stats["stats"]["served"] == 1
                    assert stats["stats"]["p99_seconds"] >= stats["stats"]["p50_seconds"] >= 0
                    assert stats["max_inflight"] == handle.server.max_inflight
                    unknown = client.request({"op": "warp", "id": 3})
                    assert unknown["error"]["field"] == "op"
                    assert unknown["id"] == 3

    def test_stats_report_the_row_store(self, tiny_workload, monkeypatch):
        """A repeat run's gathers are store hits, visible in ``{"op": "stats"}``."""
        monkeypatch.setattr(row_store, "ROW_STORE", row_store.RowStore())
        n_layers = tiny_workload.program.n_layers
        with _service(tiny_workload) as service:
            with ServerThread(service) as handle:
                with ServeClient(handle.server.host, handle.server.port) as client:
                    for _ in range(2):
                        client.request({"kind": "run", "program": "w"})
                    stats = client.request({"op": "stats"})["row_store"]
        assert (stats["misses"], stats["hits"], stats["entries"]) == (1, 1, 1)
        assert stats["bytes"] == n_layers * tiny_workload.yet.event_ids.nbytes
        assert stats["budget_bytes"] == row_store.BUDGET_BYTES and stats["evictions"] == 0

    def test_malformed_and_invalid_lines_answer_errors(self, tiny_workload):
        with _service(tiny_workload) as service:
            with ServerThread(service) as handle:
                with ServeClient(handle.server.host, handle.server.port) as client:
                    client._file.write(b"{not json\n")
                    client._file.flush()
                    bad_json = client.recv()
                    assert bad_json["error"]["type"] == "JSONDecodeError"
                    bad_schema = client.request({"kind": "run", "program": "nope", "id": 1})
                    assert bad_schema["error"]["type"] == "RequestValidationError"
                    assert bad_schema["id"] == 1
                    bad_type = client.request({"kind": "run", "program": "w", "shards": "2"})
                    assert bad_type["error"]["type"] == "RequestValidationError"
                    assert bad_type["error"]["field"] == "shards"
                    stacked = client.request({"kind": "run_stacked", "yet": "w", "id": 2})
                    assert stacked["error"]["type"] == "RequestValidationError"
                    assert stacked["error"]["field"] == "kind"
                    # The connection is still serving after every error.
                    ok = client.request({"kind": "run", "program": "w"})
                    assert ok["kind"] == "run"
            assert service is not None


#: ``(line, keeps serving)``: a hostile control line, and whether the
#: connection still answers after it (the stream can be resynchronised).
HOSTILE_LINES = {
    "bad_json": (b"{not json\n", True),
    "non_object": (b"[]\n", True),
    "negative_nbytes": (b'{"op": "ping", "nbytes": -1}\n', False),
    "string_nbytes": (b'{"op": "ping", "nbytes": "x"}\n', False),
    "over_cap": (b'{"op": "ping", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}\n', False),
}


def send_hostile_line(host: str, port: int, line: bytes, keeps_serving: bool) -> dict:
    """Send ``line``; assert an error answer, then a ping answer or a close."""
    with socket.create_connection((host, port), timeout=10.0) as sock, sock.makefile(
        "rwb"
    ) as stream:
        stream.write(line)
        stream.flush()
        reply = json.loads(stream.readline())
        assert set(reply["error"]) >= {"message", "type"}
        if keeps_serving:
            stream.write(b'{"op": "ping", "id": "after"}\n')
            stream.flush()
            pong = json.loads(stream.readline())
            assert pong["ok"] is True and pong["id"] == "after"
        else:
            assert stream.readline() == b""  # closed after the error line
        return reply


class TestHostileLines:
    @pytest.mark.parametrize("case", sorted(HOSTILE_LINES))
    def test_every_hostile_line_gets_an_error_line(self, tiny_workload, case):
        line, keeps_serving = HOSTILE_LINES[case]
        with _service(tiny_workload) as service:
            with ServerThread(service) as handle:
                server = handle.server
                reply = send_hostile_line(server.host, server.port, line, keeps_serving)
                assert server.stats.errors == 1
        if not keeps_serving:
            assert reply["error"]["type"] == "FrameError"

    def test_service_role_refuses_a_payload_unread(self, tiny_workload):
        # 1 GiB announced, no body sent: an answer proves the server did not
        # wait to buffer it — the service role takes no payloads at all.
        line = b'{"nbytes": 1073741824}\n'
        with _service(tiny_workload) as service:
            with ServerThread(service) as handle:
                server = handle.server
                reply = send_hostile_line(server.host, server.port, line, False)
                assert server.stats.errors == 1
        assert reply["error"]["type"] == "FrameError"
        assert "payload" in reply["error"]["message"]


class TestAdmissionControl:
    def test_overload_rejections_well_formed(self, tiny_workload):
        with _service(tiny_workload) as service:
            inner = service.engine.run_plan

            def slow_run_plan(plan):
                time.sleep(0.4)
                return inner(plan)

            service.engine.run_plan = slow_run_plan
            with ServerThread(service, max_inflight=1, queue_depth=0) as handle:
                with ServeClient(handle.server.host, handle.server.port) as client:
                    n_requests = 5
                    for i in range(n_requests):
                        client.send({"kind": "run", "program": "w", "id": i})
                    answers = [client.recv() for _ in range(n_requests)]
                    served = [a for a in answers if "error" not in a]
                    rejected = [a for a in answers if "error" in a]
                    assert served and rejected
                    assert len(served) + len(rejected) == n_requests
                    for reject in rejected:
                        assert reject["error"]["type"] == "Overloaded"
                        assert "id" in reject  # echoed so pipelines can match
                    # After the burst drains, the server admits again.
                    again = client.request({"kind": "run", "program": "w", "id": "later"})
                    assert "error" not in again
                    stats = client.request({"op": "stats"})["stats"]
                    assert stats["rejected"] == len(rejected)
                    assert stats["served"] == len(served) + 1

    def test_overloaded_is_the_wire_type(self):
        from repro.service.response import error_payload

        payload = error_payload(Overloaded("queue full"))
        assert payload == {"error": {"message": "queue full", "type": "Overloaded"}}


class TestHttpShim:
    def test_stats_and_submit(self, tiny_workload):
        import urllib.request

        with _service(tiny_workload) as service:
            with ServerThread(service) as handle:
                base = f"http://{handle.server.host}:{handle.server.port}"
                body = json.dumps({"kind": "run", "program": "w", "id": "h"}).encode()
                with urllib.request.urlopen(
                    urllib.request.Request(f"{base}/submit", data=body, method="POST")
                ) as http_response:
                    answer = json.loads(http_response.read())
                assert answer["kind"] == "run" and answer["id"] == "h"
                with urllib.request.urlopen(f"{base}/stats") as http_response:
                    stats = json.loads(http_response.read())
                assert stats["stats"]["served"] == 1

    def test_unknown_route_404(self, tiny_workload):
        import urllib.error
        import urllib.request

        with _service(tiny_workload) as service:
            with ServerThread(service) as handle:
                base = f"http://{handle.server.host}:{handle.server.port}"
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(f"{base}/nope")
                assert excinfo.value.code == 404


class TestGracefulDrain:
    def test_drain_answers_inflight_and_disconnects(self, tiny_workload):
        with _service(tiny_workload) as service:
            inner = service.engine.run_plan

            def slow_run_plan(plan):
                time.sleep(0.3)
                return inner(plan)

            service.engine.run_plan = slow_run_plan
            handle = ServerThread(service, max_inflight=2).start()
            client = ServeClient(handle.server.host, handle.server.port)
            try:
                client.send({"kind": "run", "program": "w", "id": "inflight"})
                time.sleep(0.05)  # let the server admit it
                handle.server.request_shutdown()
                answer = client.recv()
                assert answer["id"] == "inflight" and "error" not in answer
                # The drained server then disconnects us.
                with pytest.raises(ConnectionError):
                    client.recv()
            finally:
                client.close()
                handle.stop()

    def test_drain_rejects_new_requests(self, tiny_workload):
        with _service(tiny_workload) as service:
            handle = ServerThread(service).start()
            client = ServeClient(handle.server.host, handle.server.port)
            try:
                client.request({"kind": "run", "program": "w"})
                handle.server.request_shutdown()
                # A line racing the drain is either rejected (Overloaded)
                # or never answered (EOF) — it must not hang.
                try:
                    client.send({"kind": "run", "program": "w", "id": "late"})
                    answer = client.recv()
                    assert answer["error"]["type"] == "Overloaded"
                except (ConnectionError, BrokenPipeError, OSError):
                    pass
            finally:
                client.close()
                handle.stop()

    def test_drain_leaves_dev_shm_clean(self, tiny_workload, publish_under_fork):
        """Shared-memory serving: after drain + close, no leaked segments."""
        before = _shm_entries()
        config = EngineConfig(backend="multicore", n_workers=2)
        service = RiskService(config)
        service.register_workload("w", tiny_workload)
        with service:
            with ServerThread(service, max_inflight=2) as handle:
                with ServeClient(handle.server.host, handle.server.port) as client:
                    for i in range(3):
                        answer = client.request({"kind": "run", "program": "w", "id": i})
                        assert "error" not in answer
        leaked = _shm_entries() - before
        assert not leaked, f"leaked /dev/shm segments: {sorted(leaked)}"


class TestRegistryConcurrency:
    def test_preset_generation_neither_lost_nor_duplicated(self, monkeypatch):
        """N threads x mixed preset seeds: one generation per (name, seed)."""
        from repro.workloads import generator as generator_module

        counts: dict = {}
        count_lock = threading.Lock()
        original_generate = generator_module.WorkloadGenerator.generate

        def counting_generate(self):
            with count_lock:
                counts[self.spec.seed] = counts.get(self.spec.seed, 0) + 1
            time.sleep(0.02)  # widen the race window the lock must close
            return original_generate(self)

        monkeypatch.setattr(
            generator_module.WorkloadGenerator, "generate", counting_generate
        )

        seeds = [101, 102, 103, 104]
        n_threads, rounds = 6, 3
        with RiskService(EngineConfig(backend="vectorized")) as service:

            def drive(thread_index: int) -> list:
                responses = []
                for round_index in range(rounds):
                    seed = seeds[(thread_index + round_index) % len(seeds)]
                    responses.append(
                        service.submit({"kind": "run", "program": "tiny", "seed": seed})
                    )
                return responses

            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                all_responses = [r for rs in pool.map(drive, range(n_threads)) for r in rs]

        assert len(all_responses) == n_threads * rounds
        assert all(response.results for response in all_responses)
        # Exactly one generation per distinct (preset, seed) — nothing lost
        # (every seed generated), nothing duplicated (no seed generated twice).
        assert counts == {seed: 1 for seed in seeds}

    def test_concurrent_register_and_submit(self, tiny_workload):
        """Registering under new names while serving never corrupts lookups."""
        with _service(tiny_workload) as service:
            stop = threading.Event()
            errors: list = []

            def register_loop() -> None:
                i = 0
                while not stop.is_set():
                    service.register_workload(f"w{i % 5}", tiny_workload)
                    i += 1

            writer = threading.Thread(target=register_loop, daemon=True)
            writer.start()
            try:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    def drive(_: int):
                        try:
                            return service.submit({"kind": "run", "program": "w"})
                        except Exception as exc:  # noqa: BLE001
                            errors.append(exc)
                            return None

                    results = list(pool.map(drive, range(16)))
            finally:
                stop.set()
                writer.join(timeout=5)
            assert not errors
            assert all(r is not None and r.results for r in results)
