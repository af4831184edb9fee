"""The benchmark-owned launcher of ``serve_mixed``'s server process.

Builds the served book from the seed, registers its term variants on a
result-caching :class:`~repro.service.service.RiskService`, binds a
:class:`~repro.service.server.RiskServer` on an ephemeral port, publishes the
port through ``--port-file`` and serves until SIGTERM (graceful drain).  On
exit it writes ``--report``: its peak RSS, cache counters and — when started
with ``--trace 1`` and told to start tracing by SIGUSR1 — its spans.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)


def _op_of_document(service, document) -> int | None:
    """Op id the client put in the request's tags (``prepare`` sees the raw dict)."""
    if isinstance(document, dict):
        return (document.get("tags") or {}).get("op")
    return None


def _op_of_submission(prepared) -> int | None:
    """Op id on the executor thread, from the validated request's tags."""
    return (prepared.request.tags or {}).get("op")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    from repro.service.server import RiskServer
    from repro.service.service import RiskService

    from benchmarks.ledger import inputs
    from benchmarks.ledger.env import peak_rss_mb
    from benchmarks.ledger.tracer import Tracer
    from benchmarks.ledger.workloads import (
        SMOKE_FACTOR, ServeMixed, serve_programs, service_detail)

    shape = ServeMixed.shape.scaled(SMOKE_FACTOR) if args.smoke else ServeMixed.shape
    book = inputs.generate_book(args.seed, shape)
    service = RiskService(result_cache=True)
    for name, program in serve_programs(book.program, ServeMixed.n_books).items():
        service.register_program(name, program)
        service.register_yet(name, book.yet)

    tracer = Tracer()
    server = RiskServer(service, max_inflight=ServeMixed.max_inflight,
                        queue_depth=ServeMixed.queue_depth)

    def start_tracing() -> None:
        tracer.install(op_from={
            "repro.service.service:RiskService.prepare": _op_of_document,
            "repro.service.service:PreparedSubmission.execute": _op_of_submission,
        })

    async def serve() -> None:
        await server.start()
        if args.trace:
            asyncio.get_running_loop().add_signal_handler(signal.SIGUSR1, start_tracing)
        staging = Path(args.port_file + ".tmp")
        staging.write_text(f"{server.port}\n")
        os.replace(staging, args.port_file)  # the parent never reads a half-written port
        await server.run()

    try:
        asyncio.run(serve())
    finally:
        tracer.uninstall()
        report = {
            **service_detail(service),
            "peak_rss_mb": peak_rss_mb(),
            "server": server.stats.to_dict(),
            "spans": tracer.spans(),
        }
        service.close()
        Path(args.report).write_text(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
