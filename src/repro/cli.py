"""Command-line interface.

The subcommands cover the everyday operations of the library::

    are generate --preset bench --out yet.npz     # simulate & store a YET
    are run --preset bench --backend vectorized   # run an aggregate analysis
    are run --preset bench --batch 8              # batch-price 8 term variants
    are sweep --variants 32 --block-rows 16       # stream a quote sweep
    are metrics --preset bench                    # run + print PML/TVaR report
    are uncertainty --replications 64 --cv 0.6    # replication-banded metrics
    are request --json '{"kind": "run", ...}'     # answer one JSON request
    are serve                                     # warm NDJSON request loop
    are backends --json                           # backend availability probes

Every pricing command is a thin shell over the
:class:`~repro.service.service.RiskService` request path: the command
builds a declarative :class:`~repro.service.request.AnalysisRequest`,
submits it, and formats the uniform
:class:`~repro.service.response.AnalysisResponse` — the same path a JSON
request travels through ``are request``.  ``are serve`` keeps one *warm*
service across many requests: the engine, the content-addressed plan cache
and any multicore shared-memory workspaces persist between lines, so the
second identical request skips lowering and stack building entirely::

    printf '%s\n%s\n' \
        '{"kind": "run", "program": "bench"}' \
        '{"kind": "run", "program": "bench"}' | are serve
    # line 1: "cache": {"hit": false, ...}   (cold: lower + stack build)
    # line 2: "cache": {"hit": true,  ...}   (warm: straight to the kernels)

``run --batch N`` is the batched real-time pricing scenario: N candidate-term
variants of the preset's program are priced in *one* engine invocation (their
layers all flow through the fused multi-layer kernel together) and a quote
line is printed per variant.  ``sweep`` is the streaming form of the same
scenario (row-bounded blocks, identical ELT gathers deduplicated across
variants).  ``uncertainty`` runs the replication-batched
secondary-uncertainty engine and prints percentile bands around every risk
metric plus a banded quote.

The CLI operates on the synthetic workload presets; it exists so that the
examples and benchmarks have a scriptable entry point (and so that a user can
poke at the engine without writing Python).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Sequence

from repro.core.config import BACKEND_NAMES, DTYPE_NAMES, EngineConfig
from repro.service import AnalysisRequest, RequestValidationError, RiskService
from repro.service.response import error_payload
from repro.uncertainty import LossDistributionFamily
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.presets import preset, preset_names
from repro.yet.io import save_yet
from repro.ylt.metrics import compute_risk_metrics
from repro.ylt.reporting import format_metrics_report

__all__ = ["main", "build_parser"]


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _listen_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r} (use :0 for an ephemeral port)"
        )
    try:
        return host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(f"port must be an integer, got {port!r}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="are",
        description="Aggregate Risk Engine — parallel aggregate analysis of catastrophe portfolios",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic workload's YET")
    generate.add_argument("--preset", default="bench", choices=preset_names())
    generate.add_argument("--seed", type=int, default=None, help="override the preset seed")
    generate.add_argument("--out", required=True, help="output .npz path for the YET")

    run = subparsers.add_parser("run", help="run an aggregate analysis on a preset workload")
    _add_run_arguments(run)
    run.add_argument(
        "--batch",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="batch mode: price N candidate-term variants of the preset program "
             "in one fused engine invocation and print a quote per variant "
             "(0 = normal single run)",
    )
    run.add_argument(
        "--fleet", metavar="ADDRS", default=None,
        help="price on a distributed worker fleet: comma-separated HOST:PORT "
             "addresses of `are worker` processes (the merge is bit-identical "
             "to a local run)",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="quote many term variants as one run priced in row-bounded blocks",
    )
    _add_run_arguments(sweep)
    sweep.add_argument(
        "--variants", type=_positive_int, default=8, metavar="N",
        help="number of candidate-term variants to sweep (default 8)",
    )
    sweep.add_argument(
        "--block-rows", type=_non_negative_int, default=0, metavar="R",
        help="bound one engine pass to R stacked rows "
             "(0 = the whole sweep in a single block)",
    )

    metrics = subparsers.add_parser("metrics", help="run an analysis and print the risk report")
    _add_run_arguments(metrics)
    metrics.add_argument("--return-periods", default="10,25,50,100,250",
                         help="comma-separated PML return periods (years)")

    uncertainty = subparsers.add_parser(
        "uncertainty",
        help="replication-banded secondary-uncertainty analysis and quote",
    )
    _add_run_arguments(uncertainty)
    uncertainty.add_argument(
        "--replications", type=_positive_int, default=64, metavar="R",
        help="number of sampled replications (default 64)",
    )
    uncertainty.add_argument(
        "--cv", type=float, default=0.6,
        help="coefficient of variation wrapped around every ELT loss (default 0.6)",
    )
    uncertainty.add_argument(
        "--family", default="gamma", choices=[f.value for f in LossDistributionFamily],
        help="conditional loss distribution family",
    )
    uncertainty.add_argument(
        "--method", default="batched", choices=("batched", "replay"),
        help="batched = one fused stacked pass over the YET (default); "
             "replay = one engine invocation per replication (conformance oracle)",
    )
    uncertainty.add_argument(
        "--block", type=_non_negative_int, default=0, metavar="B",
        help="stream the batched path in blocks of B replications "
             "(0 = all replications in one fused pass)",
    )
    uncertainty.add_argument("--return-periods", default="100,250",
                             help="comma-separated PML return periods (years)")

    request = subparsers.add_parser(
        "request",
        help="answer one declarative JSON analysis request through the RiskService",
    )
    _add_service_arguments(request)
    request.add_argument(
        "--json", dest="document", metavar="DOC",
        help="inline JSON request document (see repro.service.AnalysisRequest)",
    )
    request.add_argument(
        "--file", metavar="PATH",
        help="read the JSON request document from PATH ('-' = stdin)",
    )
    request.add_argument(
        "--pretty", action="store_true", help="indent the JSON response",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve JSON requests from stdin line by line (NDJSON) on one warm service, "
             "or concurrently over TCP with --listen",
    )
    _add_service_arguments(serve)
    serve.add_argument(
        "--listen", type=_listen_address, metavar="HOST:PORT", default=None,
        help="serve NDJSON (+ HTTP /stats, /submit) over TCP instead of stdin; "
             "requests run concurrently on an executor pool (port 0 = ephemeral)",
    )
    serve.add_argument(
        "--max-inflight", type=_positive_int, default=2, metavar="N",
        help="executor width with --listen: requests executing concurrently (default 2)",
    )
    serve.add_argument(
        "--queue-depth", type=_non_negative_int, default=16, metavar="N",
        help="requests allowed to wait beyond the executing ones before admission "
             "control answers {\"error\": {\"type\": \"Overloaded\"}} (default 16)",
    )

    worker = subparsers.add_parser(
        "worker",
        help="host a distributed fleet worker: price trial shards shipped over TCP "
             "(see AggregateRiskEngine.run_distributed)",
    )
    worker.add_argument(
        "--listen", type=_listen_address, metavar="HOST:PORT",
        default=("127.0.0.1", 0),
        help="listen address (default 127.0.0.1:0 = ephemeral port, printed on start)",
    )
    _add_engine_arguments(worker)
    worker.add_argument(
        "--cache-size", type=_positive_int, default=32,
        help="digest-keyed shard-plan cache capacity (default 32)",
    )
    worker.add_argument(
        "--name", default=None,
        help="provenance label stamped into produced partials (default worker-<pid>)",
    )

    backends = subparsers.add_parser(
        "backends",
        help="list the engine backends with availability probes",
    )
    backends.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the probe results as a JSON object",
    )
    backends.add_argument(
        "--probe-workers", metavar="ADDRS", default=None,
        help="comma-separated are-worker addresses to probe for the distributed "
             "row (default: the ARE_WORKERS environment variable)",
    )

    return parser


def _add_run_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", default="bench", choices=preset_names())
    sub.add_argument("--seed", type=int, default=None, help="override the preset seed")
    _add_engine_arguments(sub)
    sub.add_argument(
        "--shards", type=_non_negative_int, default=0, metavar="N",
        help="execute as N disjoint trial shards, merged exactly "
             "(bounds the per-pass working set; 0 = one shard)",
    )
    sub.add_argument("--phases", action="store_true", help="record the phase breakdown")


def _add_engine_arguments(sub: argparse.ArgumentParser) -> None:
    """The EngineConfig options every engine-hosting command shares."""
    sub.add_argument("--backend", default="vectorized", choices=BACKEND_NAMES)
    sub.add_argument("--workers", type=int, default=1, help="workers for the multicore backend")
    sub.add_argument(
        "--dtype", default="float64", choices=DTYPE_NAMES,
        help="loss-stack precision of the native backend's fused gather "
             "(float32 halves the gather bandwidth; other backends ignore this)",
    )
    sub.add_argument(
        "--native-threads", type=_non_negative_int, default=0, metavar="N",
        help="OpenMP threads of the native backend's C kernel (0 = runtime default)",
    )


def _add_service_arguments(sub: argparse.ArgumentParser) -> None:
    _add_engine_arguments(sub)
    sub.add_argument(
        "--cache-size", type=_positive_int, default=32,
        help="plan-cache capacity of the service (default 32)",
    )
    sub.add_argument(
        "--result-cache", metavar="DIR", nargs="?", const="", default=None,
        help="enable delta-aware result caching for 'run' requests; with DIR "
             "the cached blocks persist there across service restarts "
             "(bare flag = in-memory only)",
    )
    sub.add_argument(
        "--result-cache-size", type=_positive_int, default=16,
        help="resident result-cache entries (default 16)",
    )


def _result_cache_kwargs(args: argparse.Namespace) -> dict:
    """RiskService kwargs of the ``--result-cache`` options (empty when off)."""
    spec = getattr(args, "result_cache", None)
    if spec is None:
        return {}
    kwargs = {
        "result_cache": True,
        "result_cache_size": getattr(args, "result_cache_size", 16),
    }
    if spec:
        kwargs["result_cache_dir"] = spec
    return kwargs


def _build_workload(args: argparse.Namespace):
    spec = preset(args.preset)
    if args.seed is not None:
        spec = spec.scaled(seed=args.seed)
    return WorkloadGenerator(spec).generate()


def _build_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        backend=args.backend,
        n_workers=args.workers,
        trial_shards=max(getattr(args, "shards", 0), 1),
        dtype=args.dtype,
        native_threads=args.native_threads,
        record_phases=getattr(args, "phases", False),
    )


def _build_service(args: argparse.Namespace, workload=None) -> RiskService:
    """One warm RiskService per CLI invocation, preloaded with the workload."""
    service = RiskService(config=_build_config(args))
    if workload is not None:
        service.register_workload(args.preset, workload)
    return service


def _command_generate(args: argparse.Namespace) -> int:
    workload = _build_workload(args)
    path = save_yet(workload.yet, args.out)
    print(f"workload : {workload.summary()}")
    print(f"YET saved: {path}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    fleet: tuple[str, ...] = ()
    if getattr(args, "fleet", None):
        fleet = tuple(
            address.strip() for address in args.fleet.split(",") if address.strip()
        )
    request = AnalysisRequest(
        kind="run_many" if args.batch > 0 else "run",
        program=args.preset,
        variants=args.batch,
        shards=args.shards,
        workers=fleet,
    )
    try:
        request.validate()
    except RequestValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = _build_workload(args)
    service = _build_service(args, workload)
    response = service.submit(request)
    result = response.result if args.batch == 0 else response.results[0]
    print(f"workload : {workload.summary()}")
    if args.batch > 0:
        print(f"batch    : {len(response.results)} variants x {workload.program.n_layers} layers "
              f"priced in one {response.backend} invocation ({response.total_seconds:.4f}s)")
        for quote in response.quotes:
            print(f"  {quote.summary()}")
    else:
        print(f"result   : {result.summary()}"
              + (f" shards={result.details.get('trial_shards')}" if args.shards else ""))
    if fleet:
        details = response.details["fleet"]
        print(f"fleet    : {len(details['shards_per_worker'])} workers x "
              f"{details['n_shards']} shards"
              + (f", dead: {', '.join(details['dead_workers'])}"
                 if details["dead_workers"] else ""))
    if result.phase_breakdown is not None:
        print(result.phase_breakdown.format_table())
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    workload = _build_workload(args)
    service = _build_service(args, workload)
    print(f"workload : {workload.summary()}")
    print(f"sweep    : {args.variants} variants x {workload.program.n_layers} layers "
          f"on {args.backend}"
          + (f", <= {args.block_rows} rows/block" if args.block_rows else ", one block"))
    response = service.submit(
        AnalysisRequest(
            kind="sweep",
            program=args.preset,
            variants=args.variants,
            max_rows_per_block=args.block_rows,
            shards=args.shards,
        )
    )
    for index, block in enumerate(response.details["blocks"]):
        print(f"  block {index}: {block['rows']} rows ({block['n_unique_rows']} unique) "
              f"in {block['wall_seconds']:.4f}s")
    for quote in response.quotes:
        print(f"    {quote.summary()}")
    print(f"total    : {len(response.quotes)} quotes in {response.total_seconds:.4f}s")
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    return_periods = tuple(float(x) for x in args.return_periods.split(",") if x)
    request = AnalysisRequest(kind="run", program=args.preset, return_periods=return_periods)
    try:
        request.validate()
    except RequestValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = _build_workload(args)
    service = _build_service(args, workload)
    response = service.submit(request)
    result = response.result
    metrics = compute_risk_metrics(result.ylt.portfolio_losses(), return_periods=return_periods)
    print(f"workload : {workload.summary()}")
    print(f"result   : {result.summary()}")
    print()
    print(format_metrics_report(metrics, title=f"Portfolio risk ({args.preset})"))
    return 0


def _command_uncertainty(args: argparse.Namespace) -> int:
    if args.method == "batched" and args.backend == "sequential":
        print(
            f"error: backend {args.backend!r} has no stacked execution path; "
            "use --backend vectorized/chunked/multicore/native or --method replay",
            file=sys.stderr,
        )
        return 2
    return_periods = tuple(float(x) for x in args.return_periods.split(",") if x)
    # Fall back to the preset seed so the default invocation is reproducible.
    seed = args.seed if args.seed is not None else preset(args.preset).seed
    request = AnalysisRequest(
        kind="uncertainty",
        program=args.preset,
        replications=args.replications,
        cv=args.cv,
        family=args.family,
        method=args.method,
        replication_block=args.block,
        return_periods=return_periods,
        seed=seed,
    )
    try:
        request.validate()
    except RequestValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = _build_workload(args)
    config = _build_config(args).replace(
        record_max_occurrence=False, replication_block=args.block
    )
    service = RiskService(config=config)
    service.register_workload(args.preset, workload)
    response = service.submit(request)

    print(f"workload : {workload.summary()}")
    block_note = f", block={args.block}" if args.block else ""
    print(f"analysis : {args.replications} replications (cv={args.cv:g}, {args.family}) "
          f"via {args.method} on {response.backend}{block_note} "
          f"in {response.total_seconds:.4f}s")
    print()
    header = f"{'metric':<12}{'mean':>16}{'std':>14}{'p5':>16}{'p95':>16}"
    print(header)
    print("-" * len(header))
    for name, summary in response.bands.items():
        print(f"{name:<12}{summary.mean:>16,.0f}{summary.std:>14,.0f}"
              f"{summary.low:>16,.0f}{summary.high:>16,.0f}")

    print()
    print(f"quote    : {response.quotes[0].summary()}")
    return 0


def _read_request_document(args: argparse.Namespace) -> str:
    if args.document is not None and args.file is not None:
        raise RequestValidationError("pass either --json or --file, not both")
    if args.document is not None:
        return args.document
    if args.file is not None and args.file != "-":
        with open(args.file, "r", encoding="utf-8") as handle:
            return handle.read()
    return sys.stdin.read()


def _command_request(args: argparse.Namespace) -> int:
    try:
        document = _read_request_document(args)
        with RiskService(
            config=_build_config(args),
            cache_size=args.cache_size,
            **_result_cache_kwargs(args),
        ) as service:
            response = service.submit(document)
    except (RequestValidationError, json.JSONDecodeError) as exc:
        # from_json wraps decode errors in RequestValidationError, but a
        # document that fails to decode before reaching the service (or a
        # future path that re-raises the original) must exit 2 identically.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(response.to_dict(), indent=2 if args.pretty else None, sort_keys=True))
    return 0


def _serve_stats_line(answered: int, service: RiskService) -> str:
    stats_line = f"served {answered} requests | {service.cache_stats().summary()}"
    result_cache_stats = service.result_cache_stats()
    if result_cache_stats is not None:
        stats_line += f" | {result_cache_stats.summary()}"
    return stats_line


def _serve_listen(args: argparse.Namespace) -> int:
    """Concurrent TCP serving: asyncio front end over an executor pool."""
    import asyncio

    from repro.service.server import RiskServer

    host, port = args.listen
    exit_code = 0
    with RiskService(
        config=_build_config(args),
        cache_size=args.cache_size,
        **_result_cache_kwargs(args),
    ) as service:
        server = RiskServer(
            service,
            host=host,
            port=port,
            max_inflight=args.max_inflight,
            queue_depth=args.queue_depth,
        )

        async def _main() -> None:
            await server.start()
            print(
                f"listening on {server.host}:{server.port} ({args.backend}, "
                f"max in-flight {server.max_inflight}, "
                f"queue depth {server.queue_depth}); NDJSON or HTTP, "
                "SIGINT/SIGTERM drains",
                file=sys.stderr,
                flush=True,
            )
            await server.run(install_signal_handlers=True)

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            # add_signal_handler normally absorbs SIGINT into a graceful
            # drain; this is the fallback when it is unavailable.
            exit_code = 130
        finally:
            with contextlib.suppress(Exception):
                print(
                    f"{server.stats.summary()} | {service.cache_stats().summary()}",
                    file=sys.stderr,
                    flush=True,
                )
    return exit_code


def _command_serve(args: argparse.Namespace) -> int:
    """Answer NDJSON requests on one warm service (stdin loop or TCP).

    The stdin loop is crash-proof per line: a malformed request line — bad
    JSON, a schema violation, or any error the engine raises while executing
    it — answers with a structured ``{"error": {...}}`` line and the warm
    service keeps serving.  Every response line is flushed immediately so a
    pipe driving the loop sees each answer as soon as it exists.  Ctrl-C and
    a reader that goes away (broken pipe) both end the loop cleanly: the
    final stats line always reaches stderr, and the exit code is 130 for
    SIGINT (the shell convention) and 0 for a vanished reader.
    """
    if args.listen is not None:
        return _serve_listen(args)
    answered = 0
    exit_code = 0
    with RiskService(
        config=_build_config(args),
        cache_size=args.cache_size,
        **_result_cache_kwargs(args),
    ) as service:
        banner = f"serving on {args.backend} (plan cache: {args.cache_size} entries"
        if service.result_cache is not None:
            tier = service.result_cache.disk_dir
            banner += f", result cache: {args.result_cache_size} resident"
            banner += f" @ {tier}" if tier is not None else ""
        print(
            banner + "); one JSON request per line",
            file=sys.stderr,
            flush=True,
        )
        try:
            for line in sys.stdin:
                line = line.strip()
                if not line:
                    continue
                try:
                    response = service.submit(line)
                except Exception as exc:  # noqa: BLE001 - the loop must survive any request
                    print(json.dumps(error_payload(exc)), flush=True)
                    continue
                print(json.dumps(response.to_dict(), sort_keys=True), flush=True)
                answered += 1
        except KeyboardInterrupt:
            exit_code = 130
        except BrokenPipeError:
            # The reader went away; stop quietly and keep stdout's dying
            # pipe from tracebacking again during interpreter shutdown.
            with contextlib.suppress(OSError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            exit_code = 0
        finally:
            # stderr can be a broken pipe too; the stats line is best-effort
            # but must never turn a clean drain into a traceback.
            with contextlib.suppress(Exception):
                print(_serve_stats_line(answered, service), file=sys.stderr, flush=True)
    return exit_code


def _command_worker(args: argparse.Namespace) -> int:
    """Host one distributed fleet worker until SIGINT or a shutdown request.

    The worker owns its warm state — digest-keyed programs, YET stores, and
    the shard-plan cache — and prints the same stats-line shape on shutdown
    that ``are serve`` does, so fleet and service logs read alike.
    """
    from repro.distributed.worker import FleetWorker

    host, port = args.listen
    worker = FleetWorker(
        config=_build_config(args),
        host=host,
        port=port,
        name=args.name,
        cache_size=args.cache_size,
    )
    worker.start()
    exit_code = 0
    try:
        print(
            f"worker {worker.name} listening on {worker.address} "
            f"({args.backend}; plan cache: {args.cache_size} entries)",
            file=sys.stderr,
            flush=True,
        )
        try:
            worker.wait()
        except KeyboardInterrupt:
            exit_code = 130
    finally:
        worker.stop()
        with contextlib.suppress(Exception):
            print(worker.stats_line(), file=sys.stderr, flush=True)
    return exit_code


#: One-line descriptions of the always-available pure-Python backends.
_BACKEND_NOTES = {
    "sequential": "per-trial reference loop (conformance oracle)",
    "vectorized": "NumPy whole-shard kernels (default)",
    "chunked": "NumPy kernels over bounded event chunks",
    "multicore": "worker processes over trial blocks (shared-memory transport)",
    "native": "compiled C fused kernels via ctypes (OpenMP, optional float32)",
    "distributed": "fleet execution across are-worker processes (run_distributed)",
}


def _worker_probe_addresses(args: argparse.Namespace | None = None) -> list[str]:
    """Worker addresses to probe: ``--probe-workers`` or ``ARE_WORKERS``."""
    spec = getattr(args, "probe_workers", None) if args is not None else None
    if spec is None:
        spec = os.environ.get("ARE_WORKERS", "")
    return [part.strip() for part in spec.split(",") if part.strip()]


def _backend_probes(worker_addresses: Sequence[str] = ()) -> dict:
    """Availability probe per backend (the payload of ``are backends``)."""
    from repro.core.native.build import native_status
    from repro.distributed.fleet import probe_worker

    probes: dict = {}
    for name in BACKEND_NAMES:
        entry: dict = {"available": True, "note": _BACKEND_NOTES[name]}
        if name == "multicore":
            entry["cpu_count"] = os.cpu_count()
        if name == "native":
            status = native_status()
            entry["available"] = True  # falls back to NumPy, never unusable
            entry["compiled_tier"] = status["available"]
            entry["compiler"] = status["compiler"]
            entry["compiler_version"] = status["compiler_version"]
            entry["openmp"] = status["openmp"]
            entry["cached_library"] = status["cached_library"]
            if status["reason"]:
                entry["fallback_reason"] = status["reason"]
        probes[name] = entry
    distributed: dict = {"note": _BACKEND_NOTES["distributed"]}
    if worker_addresses:
        workers = {address: probe_worker(address) for address in worker_addresses}
        distributed["workers"] = workers
        distributed["available"] = any(p["reachable"] for p in workers.values())
    else:
        distributed["available"] = False
        distributed["fallback_reason"] = (
            "no workers configured (start `are worker` and set ARE_WORKERS=HOST:PORT,... "
            "or pass --probe-workers)"
        )
    probes["distributed"] = distributed
    return probes


def _command_backends(args: argparse.Namespace) -> int:
    probes = _backend_probes(_worker_probe_addresses(args))
    if args.as_json:
        print(json.dumps({"backends": probes}, indent=2, sort_keys=True))
        return 0
    for name, entry in probes.items():
        print(f"{name:<11} {entry['note']}")
        if name == "native":
            if entry["compiled_tier"]:
                cached = "cached" if entry["cached_library"] else "will compile on first use"
                openmp = "with OpenMP" if entry["openmp"] else "without OpenMP"
                print(f"{'':11} compiler: {entry['compiler_version']} ({openmp}; {cached})")
            else:
                print(f"{'':11} compiled tier unavailable: {entry['fallback_reason']}")
                print(f"{'':11} runs on the vectorized NumPy fallback (identical results)")
        if name == "distributed":
            for address, report in entry.get("workers", {}).items():
                if report["reachable"]:
                    print(f"{'':11} {address}: reachable ({report['worker']})")
                else:
                    print(f"{'':11} {address}: unreachable ({report['error']})")
            if "fallback_reason" in entry:
                print(f"{'':11} {entry['fallback_reason']}")
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "run": _command_run,
    "sweep": _command_sweep,
    "metrics": _command_metrics,
    "uncertainty": _command_uncertainty,
    "request": _command_request,
    "serve": _command_serve,
    "worker": _command_worker,
    "backends": _command_backends,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (returns a process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
