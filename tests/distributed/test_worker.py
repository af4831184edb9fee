"""The worker protocol, exercised against an in-process FleetWorker.

One live worker per module (session state is digest-keyed and append-only),
driven through real sockets by :class:`WorkerClient` — the same client the
fleet coordinator uses.
"""

from __future__ import annotations

import json
import pickle
import re
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.distributed import FleetWorker, MissingArtifact, WorkerError
from repro.distributed.fleet import WorkerClient, probe_worker
from repro.parallel.partitioner import TrialRange
from repro.portfolio.program import ReinsuranceProgram
from repro.service.digests import plan_relevant_config, program_digest, yet_digest
from repro.utils import digest as digest_module
from repro.yet.io import yet_to_bytes
from tests.service.test_server import HOSTILE_LINES, send_hostile_line


CONFIG = EngineConfig(backend="vectorized")


def is_serving(worker: FleetWorker) -> bool:
    """Whether the worker's server thread is live (started and not drained)."""
    return worker._thread is not None and not worker._thread.join(0)


@pytest.fixture(scope="module")
def worker():
    with FleetWorker(config=CONFIG, name="proto-test") as live:
        yield live


@pytest.fixture()
def client(worker):
    with WorkerClient(worker.address, timeout=30.0) as live:
        yield live


class TestControlOps:
    def test_ping(self, client):
        reply = client.ping()
        assert reply["ok"] is True
        assert reply["worker"] == "proto-test"

    def test_status_names_backend_and_caches(self, client):
        status = client.status()
        assert status["worker"] == "proto-test"
        assert status["backend"] == "vectorized"
        assert set(status["plan_cache"]) == {"entries", "hits", "misses"}

    def test_unknown_op_is_a_structured_error(self, client):
        with pytest.raises(WorkerError, match="unknown op"):
            client.request({"op": "frobnicate"})

    def test_errors_do_not_poison_the_connection(self, client):
        with pytest.raises(WorkerError):
            client.request({"op": "frobnicate"})
        assert client.ping()["ok"] is True

    def test_reconnect_opens_a_fresh_connection(self, client):
        client.connect()
        before = client._sock
        assert client.reconnect() is client
        assert client._sock is not before and before.fileno() == -1
        assert client.ping()["ok"] is True

    def test_probe_worker_reachable(self, worker):
        report = probe_worker(worker.address)
        assert report == {"reachable": True, "worker": "proto-test"}

    def test_client_sockets_disable_nagle(self, client):
        # A control line and its payload are two sends; Nagle would hold the
        # second one for the worker's delayed ACK.
        client.connect()
        assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_stats_op_and_http_stats(self, worker, client):
        import urllib.request

        client.ping()
        stats = client.request({"op": "stats"})[0]
        assert {"stats", "pending", "max_inflight", "queue_depth"} <= set(stats)
        with urllib.request.urlopen(f"http://{worker.address}/stats") as response:
            assert "stats" in json.loads(response.read())

    @pytest.mark.parametrize("case", sorted(HOSTILE_LINES))
    def test_every_hostile_line_gets_an_error_line(self, worker, case):
        line, keeps_serving = HOSTILE_LINES[case]
        host, port = worker.address.rsplit(":", 1)
        send_hostile_line(host, int(port), line, keeps_serving)
        assert is_serving(worker)

    def test_bind_failure_raises_the_oserror(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            busy = FleetWorker(port=taken.getsockname()[1])
            with pytest.raises(OSError):
                busy.start()

    def test_probe_worker_unreachable_never_raises(self):
        report = probe_worker("127.0.0.1:1", timeout=0.5)
        assert report["reachable"] is False
        assert report["error"]


class TestArtifactShipping:
    def test_put_program_digest_mismatch_rejected(self, client, tiny_workload):
        payload = pickle.dumps(tiny_workload.program)
        with pytest.raises(WorkerError, match="digest mismatch"):
            client.put_program("0" * 64, payload)

    def test_put_yet_digest_mismatch_rejected(self, client, tiny_workload):
        with pytest.raises(WorkerError, match="YET digest mismatch"):
            client.put_yet("0" * 64, yet_to_bytes(tiny_workload.yet))

    def test_put_program_reframes_every_elt(self, worker, tiny_workload, monkeypatch):
        """A pickled program carries no stored digest: the worker re-hashes it all."""
        # Own name: the module's worker must not hold the shared workload's key.
        program = ReinsuranceProgram(tiny_workload.program.layers, name="reframed")
        claimed = program_digest(program)  # stored on the sender's objects
        framed = []
        real = digest_module.hexdigest

        def spy(parts):
            parts = tuple(parts)
            framed.append(parts[0])
            return real(parts)

        monkeypatch.setattr(digest_module, "hexdigest", spy)
        reply = worker._put_program({"digest": claimed}, pickle.dumps(program))
        assert reply["stored"] == claimed
        assert framed.count(b"elt") == sum(layer.n_elts for layer in program)
        assert framed.count(b"layer") == program.n_layers
        assert framed.count(b"program") == 1

    def test_run_shard_before_shipping_names_what_is_missing(
        self, client, tiny_workload
    ):
        digest = program_digest(tiny_workload.program)
        ydigest = yet_digest(tiny_workload.yet)
        with pytest.raises(MissingArtifact) as excinfo:
            client.run_shard(
                digest,
                {"kind": "inline", "digest": ydigest},
                plan_relevant_config(CONFIG),
                TrialRange(0, 8),
            )
        missing = excinfo.value.missing
        assert missing.get("program") == digest
        assert missing.get("yet") == ydigest


class TestRunShard:
    def test_shard_matches_monolithic_columns(self, client, tiny_workload):
        program, yet = tiny_workload.program, tiny_workload.yet
        digest = program_digest(program)
        ydigest = yet_digest(yet)
        client.put_program(digest, pickle.dumps(program))
        client.put_yet(ydigest, yet_to_bytes(yet))

        partial = client.run_shard(
            digest,
            {"kind": "inline", "digest": ydigest},
            plan_relevant_config(CONFIG),
            TrialRange(16, 48),
        )
        mono = AggregateRiskEngine(CONFIG).run(program, yet)
        assert partial.trials == TrialRange(16, 48)
        assert np.array_equal(partial.losses, mono.ylt.losses[:, 16:48])
        assert partial.details["worker"] == "proto-test"

    def test_warm_digests_hit_the_plan_cache(self, tiny_workload):
        # One plan per workload: a *different* range of a warm workload is a
        # hit, priced over the same cached plan (and its one loss stack).
        program, yet = tiny_workload.program, tiny_workload.yet
        digest = program_digest(program)
        ydigest = yet_digest(yet)
        ref = {"kind": "inline", "digest": ydigest}
        fields = plan_relevant_config(CONFIG)
        with FleetWorker(config=CONFIG) as fresh, WorkerClient(fresh.address) as client:
            client.put_program(digest, pickle.dumps(program))
            client.put_yet(ydigest, yet_to_bytes(yet))
            first = client.run_shard(digest, ref, fields, TrialRange(0, 16))
            other = client.run_shard(digest, ref, fields, TrialRange(16, 40))
            assert fresh.cache_stats().entries == 1
        mono = AggregateRiskEngine(CONFIG).run(program, yet)
        assert first.details["plan_cache_hit"] is False
        assert other.details["plan_cache_hit"] is True
        assert np.array_equal(first.losses, mono.ylt.losses[:, 0:16])
        assert np.array_equal(other.losses, mono.ylt.losses[:, 16:40])

    def test_unknown_yet_ref_kind_rejected(self, client, tiny_workload):
        digest = program_digest(tiny_workload.program)
        client.put_program(digest, pickle.dumps(tiny_workload.program))
        with pytest.raises(WorkerError, match="kind"):
            client.run_shard(
                digest, {"kind": "carrier-pigeon"}, plan_relevant_config(CONFIG), TrialRange(0, 8)
            )


class TestShutdownAndStats:
    def test_stats_line_matches_the_serve_shape(self, worker):
        # Satellite contract: `are worker` prints the same stats-line shape
        # on shutdown that `are serve` does.
        line = worker.stats_line()
        assert re.fullmatch(
            r"served \d+ requests \| plan-cache: \d+/\d+ entries, "
            r"\d+ hits / \d+ misses \(\d+% hit rate\), \d+ evictions",
            line,
        ), line

    def test_stop_answers_the_inflight_shard(self, tiny_workload, monkeypatch):
        program, yet = tiny_workload.program, tiny_workload.yet
        digest, ydigest = program_digest(program), yet_digest(yet)
        with FleetWorker(config=CONFIG) as live:
            real = live._run_shard

            def slow(document):
                time.sleep(0.5)
                return real(document)

            monkeypatch.setattr(live, "_run_shard", slow)
            with WorkerClient(live.address, timeout=30.0) as client:
                client.put_program(digest, pickle.dumps(program))
                client.put_yet(ydigest, yet_to_bytes(yet))
                stopper = threading.Timer(0.15, live.stop)
                stopper.start()
                partial = client.run_shard(
                    digest,
                    {"kind": "inline", "digest": ydigest},
                    plan_relevant_config(CONFIG),
                    TrialRange(0, 8),
                )
                stopper.join(timeout=30.0)
            assert not stopper.is_alive() and not is_serving(live)
        mono = AggregateRiskEngine(CONFIG).run(program, yet)
        assert np.array_equal(partial.losses, mono.ylt.losses[:, 0:8])

    def test_shutdown_op_stops_the_worker(self):
        with FleetWorker(config=CONFIG) as live:
            with WorkerClient(live.address, timeout=10.0) as client:
                reply = client.shutdown()
            assert reply["stopping"] is True
            assert reply["stats"].startswith("served ")
            live.wait(timeout=10.0)
            assert not is_serving(live)
