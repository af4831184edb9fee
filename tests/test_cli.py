"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.preset == "bench"
        assert args.backend == "vectorized"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "quantum"])

    def test_batch_defaults_to_off(self):
        args = build_parser().parse_args(["run"])
        assert args.batch == 0

    def test_uncertainty_defaults(self):
        args = build_parser().parse_args(["uncertainty"])
        assert args.replications == 64
        assert args.method == "batched"
        assert args.block == 0
        assert args.cv == pytest.approx(0.6)

    def test_uncertainty_rejects_non_positive_replications(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["uncertainty", "--replications", "0"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.variants == 8
        assert args.block_rows == 0

    def test_sweep_rejects_zero_variants(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--variants", "0"])


class TestCommands:
    def test_run_tiny(self, capsys):
        assert main(["run", "--preset", "tiny", "--backend", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "backend=vectorized" in out

    def test_run_with_phases(self, capsys):
        assert main(["run", "--preset", "tiny", "--phases"]) == 0
        out = capsys.readouterr().out
        assert "elt_lookup" in out

    def test_run_batch_mode(self, capsys):
        assert main(["run", "--preset", "tiny", "--batch", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 variants" in out
        assert out.count("premium=") == 3
        assert "retx1.50" in out

    def test_run_batch_mode_with_phases(self, capsys):
        assert main(["run", "--preset", "tiny", "--batch", "2", "--phases"]) == 0
        out = capsys.readouterr().out
        assert "elt_lookup" in out

    def test_run_batch_mode_on_chunked_backend(self, capsys):
        assert main(["run", "--preset", "tiny", "--batch", "2", "--backend", "chunked"]) == 0
        out = capsys.readouterr().out
        assert "one chunked invocation" in out

    def test_sweep_streams_blocks(self, capsys):
        assert main(["sweep", "--preset", "tiny", "--variants", "4",
                     "--block-rows", "4"]) == 0
        out = capsys.readouterr().out
        assert "block 0" in out and "block 1" in out
        assert out.count("premium=") == 4
        assert "4 quotes" in out

    def test_sweep_single_block_dedupes_rows(self, capsys):
        assert main(["sweep", "--preset", "tiny", "--variants", "3"]) == 0
        out = capsys.readouterr().out
        # 3 variants x 2 layers share the tiny preset's 2 unique ELT rows.
        assert "6 rows (2 unique" in out

    def test_sweep_matches_batch_quotes(self, capsys):
        assert main(["run", "--preset", "tiny", "--batch", "3"]) == 0
        batch_out = capsys.readouterr().out
        assert main(["sweep", "--preset", "tiny", "--variants", "3"]) == 0
        sweep_out = capsys.readouterr().out
        batch_quotes = [l for l in batch_out.splitlines() if "premium=" in l]
        sweep_quotes = [l for l in sweep_out.splitlines() if "premium=" in l]
        assert [q.strip() for q in batch_quotes] == [q.strip() for q in sweep_quotes]

    def test_metrics_report(self, capsys):
        assert main(["metrics", "--preset", "tiny", "--return-periods", "10,50"]) == 0
        out = capsys.readouterr().out
        assert "PML by return period" in out
        assert "50 yr" in out

    def test_uncertainty_banded_metrics(self, capsys):
        assert main([
            "uncertainty", "--preset", "tiny", "--replications", "6",
            "--seed", "11", "--return-periods", "5,20",
        ]) == 0
        out = capsys.readouterr().out
        assert "6 replications" in out
        assert "via batched on vectorized" in out
        for metric in ("aal", "pml_5", "pml_20", "tvar_0.99"):
            assert metric in out
        assert "aal_band=" in out

    def test_uncertainty_replay_matches_batched(self, capsys):
        args = ["uncertainty", "--preset", "tiny", "--replications", "4", "--seed", "3"]
        assert main(args + ["--method", "batched"]) == 0
        batched = capsys.readouterr().out
        assert main(args + ["--method", "replay"]) == 0
        replay = capsys.readouterr().out
        # Identical draws: every metric row agrees (only the header differs).
        batched_rows = [l for l in batched.splitlines() if l.startswith(("aal", "pml", "tvar"))]
        replay_rows = [l for l in replay.splitlines() if l.startswith(("aal", "pml", "tvar"))]
        assert batched_rows == replay_rows

    def test_uncertainty_streamed_blocks(self, capsys):
        assert main([
            "uncertainty", "--preset", "tiny", "--replications", "5",
            "--seed", "2", "--block", "2", "--backend", "chunked",
        ]) == 0
        out = capsys.readouterr().out
        assert "block=2" in out
        assert "on chunked" in out

    def test_uncertainty_batched_rejects_unstacked_backend(self, capsys):
        assert main([
            "uncertainty", "--preset", "tiny", "--replications", "2",
            "--backend", "sequential",
        ]) == 2
        err = capsys.readouterr().err
        assert "no stacked execution path" in err
        # ... while the replay oracle runs on any backend.
        assert main([
            "uncertainty", "--preset", "tiny", "--replications", "2",
            "--backend", "sequential", "--method", "replay", "--seed", "1",
        ]) == 0

    @pytest.mark.parametrize("periods", ["100,100", "100,100.0000001", "0.5", "inf"])
    def test_uncertainty_rejects_return_periods_that_are_no_band(self, capsys, periods):
        assert main([
            "uncertainty", "--preset", "tiny", "--replications", "3",
            "--return-periods", periods,
        ]) == 2
        assert "'return_periods'" in capsys.readouterr().err

    @pytest.mark.parametrize("periods", ["0.5", "inf", "100,100"])
    def test_metrics_rejects_return_periods_that_are_no_metric(self, capsys, periods):
        assert main(["metrics", "--preset", "tiny", "--return-periods", periods]) == 2
        assert "'return_periods'" in capsys.readouterr().err

    def test_uncertainty_lognormal_family(self, capsys):
        assert main([
            "uncertainty", "--preset", "tiny", "--replications", "3",
            "--seed", "1", "--family", "lognormal", "--cv", "0.3",
        ]) == 0
        out = capsys.readouterr().out
        assert "lognormal" in out

    def test_generate_writes_yet(self, tmp_path, capsys):
        out_path = tmp_path / "tiny_yet"
        assert main(["generate", "--preset", "tiny", "--out", str(out_path)]) == 0
        assert (tmp_path / "tiny_yet.npz").exists()

    def test_run_multicore_backend(self, capsys):
        assert main(["run", "--preset", "tiny", "--backend", "multicore", "--workers", "2"]) == 0

    def test_run_gpu_backend(self, capsys):
        # The simulated GPU is a cost model of the figure scripts
        # (``benchmarks/paper/device.py``), not a backend.
        for argv in (["--backend", "gpu"], ["--threads-per-block", "16"], ["--chunk-size", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "--preset", "tiny", *argv])
        assert main(["run", "--preset", "tiny"]) == 0
        assert "modeled=" not in capsys.readouterr().out

    def test_seed_override(self, capsys):
        assert main(["run", "--preset", "tiny", "--seed", "123"]) == 0


class TestRequestCommand:
    def test_inline_json_request(self, capsys):
        assert main(["request", "--json", '{"kind": "run", "program": "tiny"}']) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "run"
        assert payload["backend"] == "vectorized"
        assert payload["cache"]["hit"] is False
        assert payload["results"][0]["n_layers"] == 2

    def test_request_from_file(self, tmp_path, capsys):
        document = tmp_path / "request.json"
        document.write_text('{"kind": "run_many", "program": "tiny", "variants": 2}')
        assert main(["request", "--file", str(document), "--pretty"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["quotes"]) == 2

    def test_request_from_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"kind": "run", "program": "tiny"}')
        )
        assert main(["request"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "run"

    def test_invalid_request_rejected(self, capsys):
        assert main(["request", "--json", '{"kind": "teleport"}']) == 2
        assert "unknown kind" in capsys.readouterr().err

    def test_json_and_file_mutually_exclusive(self, tmp_path, capsys):
        document = tmp_path / "request.json"
        document.write_text("{}")
        assert main(["request", "--json", "{}", "--file", str(document)]) == 2
        assert "either --json or --file" in capsys.readouterr().err


class TestServeCommand:
    def test_warm_ndjson_loop(self, monkeypatch, capsys):
        lines = "\n".join(
            [
                '{"kind": "run", "program": "tiny"}',
                "",  # blank lines are skipped
                '{"kind": "run", "program": "tiny"}',
                '{"kind": "nope"}',
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
        assert main(["serve"]) == 0
        captured = capsys.readouterr()
        answers = [json.loads(line) for line in captured.out.splitlines()]
        assert answers[0]["cache"]["hit"] is False
        assert answers[1]["cache"]["hit"] is True  # warm plan + stack reuse
        assert "error" in answers[2]
        assert "served 2 requests" in captured.err


class TestShardedRun:
    def test_shards_flag_parsed(self):
        args = build_parser().parse_args(["run", "--shards", "4"])
        assert args.shards == 4

    def test_negative_shards_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--shards", "-1"])

    def test_sharded_run_reports_shard_count(self, capsys):
        assert main(["run", "--preset", "tiny", "--shards", "4"]) == 0
        assert "shards=4" in capsys.readouterr().out

    def test_sharded_metrics_match_monolithic(self, capsys):
        """The printed risk numbers (AAL/PML/TVaR) must be shard-invariant.

        The metrics report is a pure function of the year losses, so
        comparing it end to end catches any sharded-vs-monolithic result
        drift through the whole CLI -> service -> engine path.
        """

        def report_lines(out: str) -> list[str]:
            # Everything from the blank separator on is the metrics report;
            # the lines above it carry wall times.
            lines = out.splitlines()
            return lines[lines.index("") :]

        assert main(["metrics", "--preset", "tiny", "--shards", "4"]) == 0
        sharded = report_lines(capsys.readouterr().out)
        assert main(["metrics", "--preset", "tiny"]) == 0
        monolithic = report_lines(capsys.readouterr().out)
        assert any("PML" in line or "AAL" in line for line in sharded)
        assert sharded == monolithic

    def test_sharded_sweep(self, capsys):
        assert main(["sweep", "--preset", "tiny", "--variants", "3",
                     "--shards", "2"]) == 0
        assert "3 quotes" in capsys.readouterr().out


class TestServeHardening:
    def test_malformed_json_line_answers_structured_error(self, monkeypatch, capsys):
        lines = "\n".join(
            [
                "{not json at all",
                '{"kind": "run", "program": "tiny"}',
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
        assert main(["serve"]) == 0
        captured = capsys.readouterr()
        answers = [json.loads(line) for line in captured.out.splitlines()]
        # The malformed line gets a structured error envelope...
        assert answers[0]["error"]["type"] == "RequestValidationError"
        assert "not valid JSON" in answers[0]["error"]["message"]
        # ...and the warm loop keeps serving the next request.
        assert answers[1]["kind"] == "run"
        assert "served 1 requests" in captured.err

    def test_schema_error_names_the_field(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"kind": "run", "program": "tiny", "shards": -2}\n')
        )
        assert main(["serve"]) == 0
        answer = json.loads(capsys.readouterr().out.splitlines()[0])
        assert answer["error"]["field"] == "shards"

    def test_engine_rejection_does_not_kill_the_loop(self, monkeypatch, capsys):
        # A valid request the backend rejects (stacked path on sequential)
        # must answer an error line and keep serving.
        lines = "\n".join(
            [
                '{"kind": "uncertainty", "program": "tiny", "replications": 2, "seed": 1}',
                '{"kind": "run", "program": "tiny"}',
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
        assert main(["serve", "--backend", "sequential"]) == 0
        captured = capsys.readouterr()
        answers = [json.loads(line) for line in captured.out.splitlines()]
        assert "error" in answers[0]
        assert answers[1]["kind"] == "run"


class _InterruptedStdin:
    """A stdin whose iteration raises after yielding the given lines."""

    def __init__(self, lines, exc):
        self._lines = iter(lines)
        self._exc = exc

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return next(self._lines)
        except StopIteration:
            raise self._exc


class TestServeShutdown:
    def test_ctrl_c_exits_130_with_stats_line(self, monkeypatch, capsys):
        """SIGINT mid-loop: no traceback, the stats line still reaches stderr."""
        monkeypatch.setattr(
            "sys.stdin",
            _InterruptedStdin(['{"kind": "run", "program": "tiny"}\n'], KeyboardInterrupt()),
        )
        assert main(["serve"]) == 130
        captured = capsys.readouterr()
        assert json.loads(captured.out.splitlines()[0])["kind"] == "run"
        assert "served 1 requests" in captured.err

    def test_broken_pipe_exits_clean_with_stats_line(self, monkeypatch, capsys):
        """The reader going away is a normal end of serving, not a crash."""
        monkeypatch.setattr(
            "sys.stdin",
            _InterruptedStdin(['{"kind": "run", "program": "tiny"}\n'], BrokenPipeError()),
        )
        assert main(["serve"]) == 0
        assert "served 1 requests" in capsys.readouterr().err

    def test_interrupt_before_any_request(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", _InterruptedStdin([], KeyboardInterrupt()))
        assert main(["serve"]) == 130
        assert "served 0 requests" in capsys.readouterr().err


class TestRequestExitCodes:
    def test_undecodable_json_exits_2(self, capsys):
        assert main(["request", "--json", "{not json at all"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        document = tmp_path / "busted.json"
        document.write_text("][")
        assert main(["request", "--file", str(document)]) == 2
        assert "error:" in capsys.readouterr().err


class TestListenFlags:
    def test_listen_flags_parsed(self):
        args = build_parser().parse_args(
            ["serve", "--listen", "127.0.0.1:0", "--max-inflight", "4", "--queue-depth", "8"]
        )
        assert args.listen == ("127.0.0.1", 0)
        assert args.max_inflight == 4
        assert args.queue_depth == 8

    def test_listen_defaults_to_stdin_loop(self):
        assert build_parser().parse_args(["serve"]).listen is None

    def test_bad_listen_address_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--listen", "9800"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--listen", "host:notaport"])

    def test_listen_serves_over_tcp_and_drains_on_sigint(self, tmp_path):
        """End to end through the real CLI: subprocess, TCP round trip, SIGINT."""
        import os
        import signal
        import socket
        import subprocess
        import sys as _sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro.cli", "serve", "--listen", "127.0.0.1:0"],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stderr.readline()
            assert "listening on" in banner
            port = int(banner.split("listening on ")[1].split(" ")[0].split(":")[1])
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                stream = sock.makefile("rwb")
                stream.write(
                    (json.dumps({"kind": "run", "program": "tiny", "id": 1}) + "\n").encode()
                )
                stream.flush()
                answer = json.loads(stream.readline())
                assert answer["id"] == 1 and answer["kind"] == "run"
            proc.send_signal(signal.SIGINT)
            stderr_tail = proc.stderr.read()
            assert proc.wait(timeout=30) == 0
            assert "served 1" in stderr_tail
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestFleetRunFlag:
    def test_fleet_flag_parsed(self):
        args = build_parser().parse_args(["run", "--fleet", "a:1,b:2"])
        assert args.fleet == "a:1,b:2"
        assert build_parser().parse_args(["run"]).fleet is None

    def test_fleet_run_matches_local_run(self, capsys):
        """`are run --fleet` prices on live workers, bit-identical metrics."""
        from repro.core.config import EngineConfig
        from repro.distributed import FleetWorker

        config = EngineConfig(backend="vectorized")
        with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
            assert main(
                ["run", "--preset", "tiny", "--shards", "4",
                 "--fleet", f"{w1.address},{w2.address}"]
            ) == 0
        fleet_out = capsys.readouterr().out
        assert "fleet    : 2 workers x 4 shards" in fleet_out
        assert main(["run", "--preset", "tiny", "--shards", "4"]) == 0
        local_out = capsys.readouterr().out
        # Same workload line; the result line differs only in wall time.
        assert fleet_out.splitlines()[0] == local_out.splitlines()[0]

    def test_fleet_batch_matches_local_batch(self, capsys):
        """`are run --batch N --fleet` prices the variants on the workers."""
        from repro.core.config import EngineConfig
        from repro.distributed import FleetWorker

        config = EngineConfig(backend="vectorized")
        with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
            assert main(
                ["run", "--preset", "tiny", "--batch", "3",
                 "--fleet", f"{w1.address},{w2.address}"]
            ) == 0
        fleet_out = capsys.readouterr().out
        assert "fleet    : 2 workers x 4 shards" in fleet_out
        assert main(["run", "--preset", "tiny", "--batch", "3"]) == 0
        local_out = capsys.readouterr().out

        def quotes(out):
            return [line for line in out.splitlines() if "premium=" in line]

        assert len(quotes(fleet_out)) == 3
        assert quotes(fleet_out) == quotes(local_out)

    def test_bad_fleet_address_is_a_clean_error(self, capsys):
        assert main(["run", "--preset", "tiny", "--fleet", "nocolon"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err


class TestWorkerCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["worker"])
        assert args.listen == ("127.0.0.1", 0)
        assert args.backend == "vectorized"
        assert args.cache_size == 32
        assert args.name is None

    def test_bad_listen_address_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "--listen", "9800"])

    def test_worker_serves_a_fleet_and_drains_on_sigint(self):
        """End to end through the real CLI: subprocess worker, fleet run, SIGINT."""
        import os
        import signal
        import subprocess
        import sys as _sys

        import numpy as np

        from repro.core.config import EngineConfig
        from repro.core.engine import AggregateRiskEngine
        from repro.workloads.generator import WorkloadGenerator
        from repro.workloads.presets import tiny_spec

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro.cli", "worker", "--listen", "127.0.0.1:0",
             "--name", "cli-worker"],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stderr.readline()
            assert "worker cli-worker listening on" in banner
            address = banner.split("listening on ")[1].split(" ")[0]
            workload = WorkloadGenerator(tiny_spec()).generate()
            engine = AggregateRiskEngine(EngineConfig(backend="vectorized"))
            mono = engine.run(workload.program, workload.yet)
            fleet = engine.run_distributed(
                workload.program, workload.yet, workers=[address], n_shards=2
            )
            assert np.array_equal(mono.ylt.losses, fleet.ylt.losses)
            proc.send_signal(signal.SIGINT)
            stderr_tail = proc.stderr.read()
            assert proc.wait(timeout=30) == 130
            # the shutdown stats line has the exact `are serve` shape
            assert "served 2 requests | plan-cache:" in stderr_tail
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestBackendsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["backends"])
        assert args.as_json is False
        assert build_parser().parse_args(["backends", "--json"]).as_json is True

    def test_lists_all_backends(self, capsys):
        assert main(["backends"]) == 0
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                if line and not line[0].isspace()]
        assert rows == [
            "sequential", "vectorized", "chunked", "multicore", "native", "distributed",
        ]

    def test_json_payload_shape(self, capsys, monkeypatch):
        monkeypatch.delenv("ARE_WORKERS", raising=False)
        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        probes = payload["backends"]
        assert set(probes) == {
            "sequential", "vectorized", "chunked", "multicore", "native", "distributed",
        }
        engine_rows = {k: v for k, v in probes.items() if k != "distributed"}
        assert all(entry["available"] is True for entry in engine_rows.values())
        assert isinstance(probes["multicore"]["cpu_count"], int)
        assert isinstance(probes["native"]["compiled_tier"], bool)
        # no workers configured: the fleet row reports unavailable + why
        assert probes["distributed"]["available"] is False
        assert "no workers configured" in probes["distributed"]["fallback_reason"]

    def test_distributed_probe_reaches_a_live_worker(self, capsys):
        from repro.core.config import EngineConfig
        from repro.distributed import FleetWorker

        with FleetWorker(config=EngineConfig(), name="probe-me") as worker:
            assert main(["backends", "--json", "--probe-workers", worker.address]) == 0
        row = json.loads(capsys.readouterr().out)["backends"]["distributed"]
        assert row["available"] is True
        assert row["workers"][worker.address] == {
            "reachable": True,
            "worker": "probe-me",
        }

    def test_distributed_probe_reads_are_workers_env(self, monkeypatch, capsys):
        monkeypatch.setenv("ARE_WORKERS", "127.0.0.1:1")
        assert main(["backends", "--json"]) == 0
        row = json.loads(capsys.readouterr().out)["backends"]["distributed"]
        assert row["available"] is False
        assert row["workers"]["127.0.0.1:1"]["reachable"] is False

    def test_native_probe_reports_fallback_reason(self, monkeypatch, capsys):
        monkeypatch.setenv("ARE_NATIVE_CC", "are-no-such-compiler")
        assert main(["backends", "--json"]) == 0
        native = json.loads(capsys.readouterr().out)["backends"]["native"]
        assert native["available"] is True  # the NumPy fallback always works
        assert native["compiled_tier"] is False
        assert "ARE_NATIVE_CC" in native["fallback_reason"]


class TestNativeRunFlags:
    def test_dtype_and_threads_parsed(self):
        # Every engine-hosting command shares one set of engine options.
        for command in ("run", "sweep", "metrics", "uncertainty", "request", "serve", "worker"):
            args = build_parser().parse_args([
                command, "--backend", "native", "--workers", "3",
                "--dtype", "float32", "--native-threads", "2",
            ])
            assert (args.backend, args.workers) == ("native", 3)
            assert args.dtype == "float32"
            assert args.native_threads == 2

    def test_unknown_dtype_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dtype", "float16"])

    def test_negative_threads_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--native-threads", "-1"])

    def test_run_native_backend(self, capsys):
        assert main(["run", "--preset", "tiny", "--backend", "native"]) == 0
        out = capsys.readouterr().out
        assert "backend=native" in out

    def test_run_native_float32(self, capsys):
        assert main(
            ["run", "--preset", "tiny", "--backend", "native", "--dtype", "float32"]
        ) == 0
        assert "backend=native" in capsys.readouterr().out
