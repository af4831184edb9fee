"""Drive one workload: repeated set-up, the closed measurement loop, the metrics.

The untraced pass yields the end-to-end metrics; the traced pass replays the
same ops — first without, then with the wrappers of
:mod:`benchmarks.ledger.tracer` installed — and yields ``trace.*`` plus the
workload's cache counters.  The layer probes live in
:mod:`benchmarks.ledger.probes`.
"""

from __future__ import annotations

import gc
import json
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from benchmarks.ledger import stats
from benchmarks.ledger.env import WorkDir
from benchmarks.ledger.tracer import LAYERS, OP_LAYER, Tracer, self_times
from benchmarks.ledger.workloads import WORKLOADS, Workload, op_id

#: Times the whole set-up runs per untraced pass; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: A loop still short of its sample floor this long after its deadline stops.
OVERRUN_SECONDS = 60.0

#: Name, unit and direction of every end-to-end metric, in print order.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)


@dataclass(frozen=True)
class OpRecord:
    """One attempted op: who ran it, when, how long, and the oracle's verdict."""

    caller: int
    start: float
    latency: float
    ok: bool
    kind: str


def drive(
    workload: Workload,
    seconds: float,
    min_ops: int,
    first_index: int = 0,
    tracer: Tracer | None = None,
) -> list[OpRecord]:
    """Closed loops on every caller until the deadline *and* ``min_ops``.

    Only ``execute`` is timed; ``prepare`` (the generator) and ``check`` (the
    oracle) run between ops, outside any latency.  An op that raises is a
    failed op, not a crashed run.
    """
    deadline = time.perf_counter() + seconds
    per_caller = -(-min_ops // workload.callers)
    records: list[list[OpRecord]] = [[] for _ in range(workload.callers)]

    def loop(caller: int) -> None:
        out = records[caller]
        index = first_index
        while True:
            now = time.perf_counter()
            if now >= deadline and (len(out) >= per_caller or now >= deadline + OVERRUN_SECONDS):
                return
            op = workload.prepare(caller, index)
            started = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span(OP_LAYER, "op", op_id(caller, index)):
                        result = workload.execute(caller, op)
                else:
                    result = workload.execute(caller, op)
                latency = time.perf_counter() - started
                ok, kind = workload.check(caller, op, result)
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                latency = time.perf_counter() - started
                ok, kind = False, f"error:{type(exc).__name__}"
            out.append(OpRecord(caller, started, latency, ok, kind))
            index += 1

    if workload.callers == 1:
        loop(0)
    else:
        threads = [threading.Thread(target=loop, args=(caller,), name=f"caller-{caller}")
                   for caller in range(workload.callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return sorted((r for out in records for r in out), key=lambda r: r.start)


# --------------------------------------------------------------------------- #
# End-to-end metrics
# --------------------------------------------------------------------------- #
def _throughput(records: Sequence[OpRecord], callers: int) -> float:
    """Correct ops per second of caller-busy time, summed over the callers.

    With closed loops and untimed gaps excluded this is ops / wall of the
    program's own work; the generator's and the oracle's time is not in it.
    """
    busy = sum(r.latency for r in records)
    return callers * sum(r.ok for r in records) / busy if busy else 0.0


def quiet_rounds(records: Sequence[OpRecord]) -> list[OpRecord]:
    """The ops of the two rounds (of three) with the lowest median latency.

    On a shared host interference arrives in bursts of seconds and only ever
    slows an op, so the most disturbed third of a run is dropped before any
    cell is computed (the ROADMAP's min-of-N timing, applied to rounds).
    """
    rounds = [chunk for chunk in stats.split_rounds(list(records)) if any(r.ok for r in chunk)]
    if len(rounds) < stats.N_ROUNDS:
        return list(records)
    rounds.sort(key=lambda chunk: statistics.median(r.latency for r in chunk if r.ok))
    return [r for chunk in rounds[: stats.N_ROUNDS - 1] for r in chunk]


def summarise(records: Sequence[OpRecord], workload: Workload) -> dict[str, Any]:
    """Latency/throughput cells plus the per-round noise estimate."""
    if not any(r.ok for r in records):
        raise RuntimeError(f"{workload.name}: no op passed its oracle "
                           f"({len(records)} attempted)")
    quiet = quiet_rounds(records)
    good = [r.latency * 1e3 for r in quiet if r.ok]
    tail_q = workload.tail_q
    if len(good) < stats.samples_floor(tail_q):
        tail_q = stats.tail_quantile(len(good)) or 0.5
    cells = {
        "latency_p50_ms": stats.percentile(good, 0.5),
        "latency_tail_ms": stats.percentile(good, tail_q),
        "ops_per_s": _throughput(quiet, workload.callers),
    }
    per_round: dict[str, list[float]] = {name: [] for name in cells}
    for chunk in stats.split_rounds(list(records)):
        ok = [r.latency * 1e3 for r in chunk if r.ok]
        if not ok:
            continue
        per_round["latency_p50_ms"].append(stats.percentile(ok, 0.5))
        per_round["latency_tail_ms"].append(stats.percentile(ok, tail_q))
        per_round["ops_per_s"].append(_throughput(chunk, workload.callers))
    kinds: dict[str, int] = {}
    for r in records:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    return {
        "cells": cells,
        "rounds": per_round,
        "round_spread": {name: stats.spread(values) for name, values in per_round.items()},
        "tail_q": tail_q,
        "tail_q_target": workload.tail_q,
        "samples": len(good),
        "ops_attempted": len(records),
        "ops_failed": sum(not r.ok for r in records),
        "kinds": kinds,
    }


def run_untraced(name: str, seed: int, seconds: float, work: WorkDir,
                 smoke: bool = False) -> dict[str, Any]:
    """Set up ``SETUP_REPEATS`` times, measure on the last, return every cell."""
    setups: list[float] = []
    repeats = 1 if smoke else SETUP_REPEATS
    for repeat in range(repeats):
        workload = WORKLOADS[name](seed, work, smoke)
        started = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.teardown()
            raise
        setups.append(time.perf_counter() - started)
        if repeat < repeats - 1:  # the last set-up is the one measured on
            workload.teardown()
            del workload
            gc.collect()
    try:
        # Two of three rounds are kept, so 1.5 floors keep ten samples beyond tail_q.
        min_ops = 20 if smoke else -(-3 * stats.samples_floor(workload.tail_q) // 2)
        records = drive(workload, seconds, min_ops)
        summary = summarise(records, workload)
        summary["detail"] = workload.detail()
        summary["lookups_per_op"] = workload.lookups_per_op
        summary["cells"]["peak_rss_mb"] = workload.peak_rss_mb()
    finally:
        workload.teardown()
    summary["cells"]["setup_s"] = statistics.median(setups)
    summary["rounds"]["setup_s"] = setups
    summary["round_spread"]["setup_s"] = stats.spread(setups)
    summary["failed_share"] = summary["ops_failed"] / summary["ops_attempted"]
    summary["lookups_per_s"] = summary["cells"]["ops_per_s"] * summary["lookups_per_op"]
    return summary


# --------------------------------------------------------------------------- #
# The traced pass
# --------------------------------------------------------------------------- #
def _inside_ops(spans: Sequence[dict[str, Any]]) -> list[bool]:
    """Per span: is it a root op span or a descendant of one?

    The oracle and the generator call the same wrapped functions between
    ops; those spans have no op span above them and must not be counted.
    """
    inside = [False] * len(spans)
    for index, span in enumerate(spans):  # parents always precede children
        inside[index] = span["layer"] == OP_LAYER or (
            span["parent"] >= 0 and inside[span["parent"]]
        )
    return inside


def merge_child_spans(spans: list[dict[str, Any]], child: Sequence[dict[str, Any]]) -> None:
    """Graft another process's spans under this process's span of the same op.

    The child's top-level spans become children of the innermost client span
    of their op (the ``ServeClient.request`` span, else the root), so the
    client's self time is what the server's own layers do not explain.  Child
    spans of ops this process never traced are dropped.
    """
    anchor: dict[int, int] = {}
    for index, (span, counted) in enumerate(zip(spans, _inside_ops(spans))):
        if not counted or span["op"] < 0:
            continue
        if span["layer"] == OP_LAYER:
            anchor.setdefault(span["op"], index)
        elif span["name"].endswith("ServeClient.request"):
            anchor[span["op"]] = index
    base = len(spans)
    kept: dict[int, int] = {}
    for index, span in enumerate(child):
        if span["parent"] >= 0:
            parent = kept.get(span["parent"])
        else:
            parent = anchor.get(span["op"])
        if parent is None:
            continue
        kept[index] = base + len(kept)
        spans.append({**span, "parent": parent})


def attribute(spans: Sequence[dict[str, Any]]) -> dict[str, float]:
    """``trace.share.<layer>`` and ``trace.unattributed_share`` of the traced ops."""
    inside = _inside_ops(spans)
    own = self_times(spans)
    op_seconds = sum(s["end"] - s["start"] for s in spans if s["layer"] == OP_LAYER)
    totals = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    for span, seconds, counted in zip(spans, own, inside):
        if not counted:
            continue
        if span["layer"] == OP_LAYER:
            unattributed += seconds
        else:
            totals[span["layer"]] = totals.get(span["layer"], 0.0) + seconds
    scale = 1.0 / op_seconds if op_seconds else 0.0
    shares = {f"trace.share.{layer}": totals[layer] * scale for layer in LAYERS}
    shares["trace.unattributed_share"] = unattributed * scale
    return shares


def run_traced(name: str, seed: int, seconds: float, work: WorkDir,
               smoke: bool = False, trace_out: str | None = None) -> dict[str, Any]:
    """Replay the workload untraced then traced; returns ``trace.*`` and counters."""
    workload = WORKLOADS[name](seed, work, smoke)
    tracer = Tracer()
    try:
        workload.setup(traced=True)
        share = max(seconds / 4.0, 0.2)
        plain = drive(workload, share, min_ops=5)
        tracer.install()
        workload.start_tracing()
        try:
            traced = drive(workload, share, min_ops=5, first_index=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        detail = workload.detail()
        spans = tracer.spans()
        merge_child_spans(spans, workload.remote_spans())
    finally:
        workload.teardown()
    if trace_out:
        Path(trace_out).write_text(json.dumps(spans) + "\n")

    def median_ms(records: Sequence[OpRecord]) -> float:
        good = [r.latency * 1e3 for r in records if r.ok]
        return statistics.median(good) if good else 0.0

    base = median_ms(plain)
    metrics = attribute(spans)
    metrics["trace.overhead_share"] = (median_ms(traced) - base) / base if base else 0.0
    failed = sum(not r.ok for r in plain) + sum(not r.ok for r in traced)
    kinds: dict[str, int] = {}
    for r in plain + traced:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    return {
        "metrics": metrics,
        "detail": detail,
        "kinds": kinds,
        "ops_per_s": _throughput(plain, workload.callers),
        "lookups_per_op": workload.lookups_per_op,
        "ops_attempted": len(plain) + len(traced),
        "ops_failed": failed,
        "n_spans": len(spans),
    }
