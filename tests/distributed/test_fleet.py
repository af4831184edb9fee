"""Fleet conformance: distributed runs are bit-identical to monolithic runs.

The invariant carried over from the sharded-execution suite: shard merges
are pure column placement, so no amount of work stealing, retrying, or
reassignment may change a single bit of the merged result.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.core.config import BACKEND_NAMES, EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.distributed import (
    FleetEngine,
    FleetError,
    FleetWorker,
    WorkerClient,
    WorkerError,
    WorkerProcess,
)
from repro.distributed.fleet import format_address, parse_address
from repro.service.request import AnalysisRequest
from repro.service.service import RiskService
from repro.yet.io import YetShardReader, save_yet_store
from tests.service.test_result_cache import append_trials, with_scaled_layer
from tests.service.test_service import FORMS, check_many_programs


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_bit_identical_to_monolithic_on_every_backend(tiny_workload, backend):
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend=backend, n_workers=2)
    engine = AggregateRiskEngine(config)
    mono = engine.run(program, yet)
    with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
        fleet = engine.run_distributed(
            program, yet, workers=[w1.address, w2.address], n_shards=4
        )
    assert np.array_equal(mono.ylt.losses, fleet.ylt.losses)
    assert np.array_equal(
        mono.ylt.max_occurrence_losses, fleet.ylt.max_occurrence_losses
    )
    assert fleet.backend == backend
    assert fleet.workload_shape == mono.workload_shape
    assert fleet.details["fleet"]["n_shards"] == 4
    assert fleet.details["fleet"]["dead_workers"] == []
    # The driver stamps the common details, as it does for every backend.
    assert fleet.details["trial_shards"] == 4
    assert fleet.details["fused_layers"] is (backend != "sequential")
    assert fleet.details["plan"]["n_rows"] == program.n_layers


def test_work_is_distributed_across_workers(tiny_workload):
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend="vectorized")
    engine = AggregateRiskEngine(config)
    with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
        fleet = engine.run_distributed(
            program, yet, workers=[w1.address, w2.address], n_shards=8
        )
        per_worker = fleet.details["fleet"]["shards_per_worker"]
        # Work stealing: both workers pull from the shared queue, so each
        # prices at least its first-popped shard and the counts sum exactly.
        assert set(per_worker) == {w1.address, w2.address}
        assert all(count >= 1 for count in per_worker.values())
        assert sum(per_worker.values()) == 8


def test_partials_stream_as_they_arrive(tiny_workload):
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend="vectorized")
    seen, callers = [], set()

    def on_partial(partial):
        seen.append(partial)
        callers.add(threading.current_thread())

    with FleetWorker(config=config) as worker:
        with FleetEngine([worker.address], config=config) as fleet:
            result = fleet.run(program, yet, n_shards=4, on_partial=on_partial)
    assert len(seen) == 4
    assert callers == {threading.current_thread()}  # the calling thread, not a fleet thread
    covered = sorted((p.trials.start, p.trials.stop) for p in seen)
    assert covered[0][0] == 0 and covered[-1][1] == yet.n_trials
    assert result.details["fleet"]["n_shards"] == 4


def test_local_dir_store_reference(tiny_workload, tmp_path, monkeypatch):
    # Shared-filesystem topology: the YET travels by path, not by bytes —
    # each worker opens its own memory-mapped YetShardReader, and the
    # coordinator never reads a shard of its own reader.
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend="vectorized")
    engine = AggregateRiskEngine(config)
    mono = engine.run(program, yet)
    store = save_yet_store(yet, tmp_path / "store")
    with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
        with YetShardReader(store) as reader:
            reads = []
            shard = reader.shard
            monkeypatch.setattr(
                reader, "shard", lambda trials: reads.append(trials) or shard(trials)
            )
            fleet = engine.run_distributed(
                program, reader, workers=[w1.address, w2.address], n_shards=4
            )
    assert reads == []
    assert np.array_equal(mono.ylt.losses, fleet.ylt.losses)


def test_second_run_reuses_shipped_artifacts(tiny_workload):
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend="vectorized")
    with FleetWorker(config=config) as worker:
        with FleetEngine([worker.address], config=config) as fleet:
            first = fleet.run(program, yet, n_shards=2)
            second = fleet.run(program, yet, n_shards=2)
        assert np.array_equal(first.ylt.losses, second.ylt.losses)
        # Same digests, same shard ranges: the second run is answered from
        # the worker's warm caches without re-shipping program or YET.
        stats = worker.cache_stats()
        assert stats.hits >= 2


def test_empty_fleet_rejected():
    with pytest.raises(ValueError, match="at least one worker"):
        FleetEngine([])


def test_all_workers_dead_names_missing_ranges(tiny_workload):
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend="vectorized")
    engine = AggregateRiskEngine(config)
    # Nothing listens on this port: every request fails, both attempts burn,
    # and the fleet must say which trial ranges were lost.
    with FleetWorker(config=config) as doomed:
        address = doomed.address
    with pytest.raises(FleetError, match="lost trial ranges"):
        engine.run_distributed(program, yet, workers=[address], n_shards=2, timeout=2.0)


def _count_shard_sends(monkeypatch) -> Counter:
    """Count ``run_shard`` requests per worker address."""
    sends: Counter = Counter()
    original = WorkerClient.request

    def counted(client, document, payload=None):
        if document.get("op") == "run_shard":
            sends[client.address] += 1
        return original(client, document, payload)

    monkeypatch.setattr(WorkerClient, "request", counted)
    return sends


def test_worker_error_reaches_the_caller_once(tiny_workload, monkeypatch):
    # A structured worker error is not a transport failure: it must surface
    # on the calling thread, without a resend and without escaping a thread.
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend="vectorized")
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    sends = _count_shard_sends(monkeypatch)

    def broken(document):
        raise RuntimeError("shard pricing broke")

    with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
        for worker in (w1, w2):
            monkeypatch.setattr(worker, "_run_shard", broken)
        with pytest.raises(WorkerError, match="shard pricing broke"):
            AggregateRiskEngine(config).run_distributed(
                program, yet, workers=[w1.address, w2.address], n_shards=4
            )
    assert sends and max(sends.values()) == 1
    assert hooked == []


def test_overloaded_worker_is_retried_then_requeued(tiny_workload, monkeypatch):
    # A worker's admission control answers ``Overloaded``: the coordinator
    # treats it like a timeout (one retry, then requeue), never as an error.
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend="vectorized")
    mono = AggregateRiskEngine(config).run(program, yet)
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    sends = _count_shard_sends(monkeypatch)
    release = threading.Event()
    with FleetWorker(config=config) as busy, FleetWorker(config=config) as survivor:
        server = busy._thread.server
        server.max_inflight, server.queue_depth = 1, 0  # admit one request
        monkeypatch.setattr(busy, "_status", lambda: release.wait(30.0) and {"ok": True})
        with WorkerClient(busy.address, timeout=30.0) as hog:
            holder = threading.Thread(target=hog.status, daemon=True)
            holder.start()  # takes the busy worker's only admission slot
            deadline = time.monotonic() + 10.0
            while server._pending == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._pending == 1
            try:
                fleet = AggregateRiskEngine(config).run_distributed(
                    program, yet, workers=[busy.address, survivor.address], n_shards=8
                )
            finally:
                release.set()
                holder.join(timeout=30.0)
            assert not holder.is_alive()
        rejected = server.stats.rejected
    details = fleet.details["fleet"]
    assert sends[busy.address] == 2 and rejected == 2
    assert details["dead_workers"] == [busy.address]
    assert details["requeued_shards"] == 1
    assert details["shards_per_worker"] == {busy.address: 0, survivor.address: 8}
    assert fleet.ylt.losses.tobytes() == mono.ylt.losses.tobytes()
    assert fleet.ylt.max_occurrence_losses.tobytes() == mono.ylt.max_occurrence_losses.tobytes()
    assert hooked == []


class TestWorkerDeath:
    def test_dead_address_is_requeued_to_the_survivor(self, tiny_workload):
        program, yet = tiny_workload.program, tiny_workload.yet
        config = EngineConfig(backend="vectorized")
        engine = AggregateRiskEngine(config)
        mono = engine.run(program, yet)
        with FleetWorker(config=config) as doomed:
            dead = doomed.address  # nothing listens here any more
        with FleetWorker(config=config) as survivor:
            # The dead address is listed first, so its thread pops a shard
            # before the survivor can drain the deque.
            fleet = engine.run_distributed(
                program, yet, workers=[dead, survivor.address], n_shards=8, timeout=5.0
            )
        details = fleet.details["fleet"]
        assert details["dead_workers"] == [dead]
        assert details["requeued_shards"] == 1
        assert details["shards_per_worker"] == {dead: 0, survivor.address: 8}
        assert np.array_equal(mono.ylt.losses, fleet.ylt.losses)

    def test_death_after_the_deque_drains_is_priced_by_the_survivor(
        self, tiny_workload, monkeypatch
    ):
        # The drain race: the flaky worker's link drops only once the deque
        # is empty and the survivor has finished its own shard.  The idle
        # survivor thread must still be there to take the requeued shard.
        program, yet = tiny_workload.program, tiny_workload.yet
        config = EngineConfig(backend="vectorized")
        engine = AggregateRiskEngine(config)
        mono = engine.run(program, yet)
        flaky_sent, survivor_done = threading.Event(), threading.Event()
        original = WorkerClient.request

        with FleetWorker(config=config) as survivor, FleetWorker(config=config) as flaky:

            def request(client, document, payload=None):
                if document.get("op") != "run_shard":
                    return original(client, document, payload)
                if client.address == flaky.address:
                    flaky_sent.set()
                    survivor_done.wait(10.0)
                    raise ConnectionResetError("link dropped")
                flaky_sent.wait(10.0)
                reply = original(client, document, payload)
                survivor_done.set()
                return reply

            monkeypatch.setattr(WorkerClient, "request", request)
            fleet = engine.run_distributed(
                program, yet, workers=[survivor.address, flaky.address], n_shards=2
            )
        details = fleet.details["fleet"]
        assert details["dead_workers"] == [flaky.address]
        assert details["requeued_shards"] == 1
        assert details["shards_per_worker"] == {survivor.address: 2, flaky.address: 0}
        assert np.array_equal(mono.ylt.losses, fleet.ylt.losses)

    def test_stealing_stays_exact_under_thread_contention(self, tiny_workload):
        # More coordinator threads than cores, a tiny switch interval and one
        # dead address: a lost update to the shared deque or counters would
        # drop, double or strand a shard.
        program, yet = tiny_workload.program, tiny_workload.yet
        config = EngineConfig(backend="vectorized")
        engine = AggregateRiskEngine(config)
        mono = engine.run(program, yet)
        with FleetWorker(config=config) as doomed:
            dead = doomed.address
        outcome = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with FleetWorker(config=config) as a, FleetWorker(config=config) as b, FleetWorker(
                config=config
            ) as c:
                workers = [dead, a.address, b.address, c.address]
                runner = threading.Thread(
                    target=lambda: outcome.append(
                        engine.run_distributed(program, yet, workers, n_shards=32, timeout=5.0)
                    ),
                    daemon=True,
                )
                runner.start()
                runner.join(timeout=120.0)
                assert not runner.is_alive()
        finally:
            sys.setswitchinterval(interval)
        details = outcome[0].details["fleet"]
        assert sum(details["shards_per_worker"].values()) == 32
        assert details["shards_per_worker"][dead] == 0
        assert details["requeued_shards"] == len(details["dead_workers"])
        assert np.array_equal(mono.ylt.losses, outcome[0].ylt.losses)

    def test_killed_worker_shards_are_reassigned(self, tiny_workload):
        program, yet = tiny_workload.program, tiny_workload.yet
        config = EngineConfig(backend="vectorized")
        engine = AggregateRiskEngine(config)
        mono = engine.run(program, yet)
        with WorkerProcess(config=config) as survivor, WorkerProcess(
            config=config
        ) as victim:
            killed = []

            def kill_victim_once(partial):
                if not killed:
                    killed.append(partial)
                    victim.kill()

            fleet = engine.run_distributed(
                program,
                yet,
                workers=[survivor.address, victim.address],
                n_shards=8,
                timeout=15.0,
                on_partial=kill_victim_once,
            )
        assert np.array_equal(mono.ylt.losses, fleet.ylt.losses)


class TestServiceRoute:
    def test_request_with_workers_runs_distributed(self, tiny_workload):
        config = EngineConfig(backend="vectorized")
        with RiskService(config=config) as service:
            local = service.submit(AnalysisRequest(kind="run", program="tiny"))
            with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
                response = service.submit(
                    AnalysisRequest(
                        kind="run",
                        program="tiny",
                        workers=(w1.address, w2.address),
                        shards=4,
                    )
                )
        assert np.array_equal(
            local.results[0].ylt.losses, response.results[0].ylt.losses
        )
        assert response.details["fleet"]["n_shards"] == 4

    def _spy_shard_sends(self, monkeypatch) -> list:
        """Record the trial range of every ``run_shard`` a worker answers
        (a send refused for a missing artifact is resent after shipping)."""
        sent: list = []
        original = WorkerClient.run_shard

        def spied(client, program_digest, yet_ref, config_fields, trials):
            partial = original(client, program_digest, yet_ref, config_fields, trials)
            sent.append(trials)
            return partial

        monkeypatch.setattr(WorkerClient, "run_shard", spied)
        return sent

    @staticmethod
    def _assert_cold_equal(response, program, yet, config):
        cold = AggregateRiskEngine(config).run(program, yet)
        served = response.result.ylt
        assert served.losses.tobytes() == cold.ylt.losses.tobytes()
        assert served.max_occurrence_losses.tobytes() == (
            cold.ylt.max_occurrence_losses.tobytes()
        )

    def test_repeated_fleet_request_is_an_exact_hit(self, tiny_workload, monkeypatch):
        config = EngineConfig(backend="vectorized")
        sent = self._spy_shard_sends(monkeypatch)
        with RiskService(config=config, result_cache=True) as service:
            with FleetWorker(config=config) as worker:
                request = AnalysisRequest(
                    kind="run", program="tiny", workers=(worker.address,)
                )
                first = service.submit(request)
                assert sent
                sent.clear()
                again = service.submit(request)
        assert first.result_cache["status"] == "miss"
        assert first.details["fleet"]["workers"] == [worker.address]
        assert again.result_cache["status"] == "exact"
        assert sent == []  # answered from the cache: no shard sent
        for response in (first, again):
            self._assert_cold_equal(response, tiny_workload.program, tiny_workload.yet, config)

    def test_appended_trials_send_only_the_gap(self, tiny_workload, monkeypatch):
        config = EngineConfig(backend="vectorized")
        program, yet = tiny_workload.program, tiny_workload.yet
        extended = append_trials(yet, 24)
        sent = self._spy_shard_sends(monkeypatch)
        with RiskService(config=config, result_cache=True) as service:
            service.register_program("book", program)
            service.register_yet("book", yet)
            with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
                request = AnalysisRequest(
                    kind="run", program="book", workers=(w1.address, w2.address)
                )
                service.submit(request)
                sent.clear()
                service.register_yet("book", extended)
                delta = service.submit(request)
        assert delta.result_cache["status"] == "append"
        assert delta.result_cache["repriced_trials"] == 24
        assert sent and all(t.start >= yet.n_trials for t in sent)
        assert sum(t.stop - t.start for t in sent) == 24
        self._assert_cold_equal(delta, program, extended, config)

    def test_one_layer_change_is_a_row_delta(self, tiny_workload, monkeypatch):
        config = EngineConfig(backend="vectorized")
        program, yet = tiny_workload.program, tiny_workload.yet
        changed = with_scaled_layer(program, 1)
        with RiskService(config=config, result_cache=True) as service:
            service.register_program("base", program)
            service.register_program("changed", changed)
            service.register_yet("base", yet)
            service.register_yet("changed", yet)
            with FleetWorker(config=config) as worker:
                for name in ("base", "changed"):
                    delta = service.submit(
                        AnalysisRequest(kind="run", program=name, workers=(worker.address,))
                    )
        assert delta.result_cache["status"] == "rows"
        assert delta.result_cache["repriced_rows"] == [1]
        self._assert_cold_equal(delta, changed, yet, config)

    @pytest.mark.parametrize("state", ["cold", "exact", "rows", "append"])
    @pytest.mark.parametrize("form", ["run_many", "sweep-3"])
    def test_fleet_many_programs_equal_per_program_runs(self, tiny_workload, form, state):
        config = EngineConfig(backend="vectorized")
        with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
            response = check_many_programs(
                tiny_workload, config, FORMS[form], state, workers=(w1.address, w2.address)
            )
        if state != "exact":
            assert response.details["fleet"]["workers"] == [w1.address, w2.address]

    def test_fleet_run_many_equals_a_local_cold_one(self, tiny_workload):
        config = EngineConfig(backend="vectorized")
        request = AnalysisRequest(kind="run_many", program="tiny", variants=4)
        with RiskService(config=config) as local_service:
            local = local_service.submit(request)
        with RiskService(config=config) as service:
            with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
                fleet = service.submit(request.replace(workers=(w1.address, w2.address)))
        assert fleet.details["fleet"]["n_shards"] == 4
        assert len(fleet.results) == 4
        for served, cold in zip(fleet.results, local.results):
            assert served.ylt.losses.tobytes() == cold.ylt.losses.tobytes()
            assert served.ylt.max_occurrence_losses.tobytes() == (
                cold.ylt.max_occurrence_losses.tobytes()
            )

    def test_repeated_fleet_run_many_sends_no_shard(self, tiny_workload, monkeypatch):
        config = EngineConfig(backend="vectorized")
        sent = self._spy_shard_sends(monkeypatch)
        with RiskService(config=config, result_cache=True) as service:
            with FleetWorker(config=config) as worker:
                request = AnalysisRequest(
                    kind="run_many", program="tiny", variants=8, workers=(worker.address,)
                )
                first = service.submit(request)
                assert sent
                sent.clear()
                again = service.submit(request)
        assert first.result_cache["status"] == "miss"
        assert again.result_cache["status"] == "exact"
        assert sent == []  # the repeat sends no shard
        for served, cold in zip(again.results, first.results):
            assert served.ylt.losses.tobytes() == cold.ylt.losses.tobytes()


class TestWorkerAddresses:
    def test_parse_splits_host_and_port(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)

    def test_parse_accepts_a_split_pair(self):
        assert parse_address(("localhost", "9001")) == ("localhost", 9001)

    def test_parse_splits_on_the_last_colon(self):
        assert parse_address("::1:9002") == ("::1", 9002)

    @pytest.mark.parametrize("address", ["localhost", ":9000"])
    def test_parse_rejects_a_missing_host_or_port(self, address):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address(address)

    def test_format_round_trips_through_parse(self):
        assert format_address(*parse_address("example:8080")) == "example:8080"
