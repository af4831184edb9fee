"""Command line of the ledger: the driver's one-pass form, the full ledger, compare.

One pass (what ``BENCHMARK.json``'s command runs)::

    run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Without ``--workload`` every workload runs in its own child process, untraced
then traced, and the merged ledger is printed (and written to ``--out``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

from benchmarks.ledger import compare as compare_module
from benchmarks.ledger import runner
from benchmarks.ledger.env import ROOT, WallCap, WorkDir, environment, shm_segments
from benchmarks.ledger.probes import PER_LAYER, Probes
from benchmarks.ledger.workloads import WORKLOADS

DEFAULT_SECONDS = 10


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one pass of this workload (the driver's form)")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: traced replay + layer probes")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, one repetition (self-tests only)")
    parser.add_argument("--trace-out", help="write the traced pass's spans here (JSON)")
    parser.add_argument("--out", help="write the merged ledger here (all-workloads form)")
    parser.add_argument("--traces", help="directory for per-workload span files "
                                         "(all-workloads form)")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: benchmarks.ledger compare A.json B.json", file=sys.stderr)
            return 2
        return compare_module.main(argv[1], argv[2])
    args = _parser().parse_args(argv)
    if args.workload:
        return run_pass(args)
    return run_all(args)


# --------------------------------------------------------------------------- #
# One pass of one workload
# --------------------------------------------------------------------------- #
def traced_metrics(name: str, seed: int, seconds: float, work: WorkDir, smoke: bool,
                   trace_out: str | None) -> tuple[dict[str, float], dict[str, Any]]:
    """Every per-layer metric: the traced replay's, the workload's counters, the probes'."""
    replay = runner.run_traced(name, seed, seconds, work, smoke, trace_out)
    shape = WORKLOADS[name].shape
    metrics = Probes(seed, work, smoke).run(shape.n_layers * shape.catalog_size * 8)
    metrics.update(replay["metrics"])
    detail = replay["detail"]
    metrics["core.lookups_per_s"] = replay["ops_per_s"] * replay["lookups_per_op"]
    metrics["service.cache.hit_rate"] = detail.get("plan_cache", {}).get("hit_rate", 0.0)
    counters = detail.get("result_cache", {})
    for counter in ("exact_hits", "append_hits", "row_hits", "misses", "evictions"):
        metrics[f"service.result_cache.{counter}"] = float(counters.get(counter, 0))
    # Without a result cache every answered trial was priced for the answer.
    metrics["service.result_cache.repriced_trial_share"] = detail.get("repriced_trial_share", 1.0)
    served = detail.get("server", {}).get("stats")
    if served:  # the workload's own server explains its latency better than the probe's
        metrics["service.server.rejected"] = float(served["rejected"])
        metrics["service.server.processing_p50_ms"] = served["p50_seconds"] * 1e3
        metrics["service.server.processing_p99_ms"] = served["p99_seconds"] * 1e3
    return metrics, replay


def run_pass(args: argparse.Namespace) -> int:
    name = args.workload
    print(f"ledger: workload={name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}", flush=True)
    shm_before = shm_segments()
    with WorkDir(name) as work, WallCap(name, on_abort=work.kill_children):
        print("env: " + json.dumps(environment(), sort_keys=True), flush=True)
        if args.trace:
            values, summary = traced_metrics(name, args.seed, args.seconds, work,
                                             args.smoke, args.trace_out)
            units = {metric: unit for metric, unit, _ in PER_LAYER}
            detail = {key: summary[key] for key in ("detail", "n_spans", "kinds")}
        else:
            summary = runner.run_untraced(name, args.seed, args.seconds, work, args.smoke)
            values = summary["cells"]
            units = {metric: unit for metric, unit, _ in runner.END_TO_END}
            detail = {key: summary[key] for key in (
                "rounds", "round_spread", "tail_q", "tail_q_target", "samples", "kinds",
                "lookups_per_op", "lookups_per_s", "failed_share", "detail")}
    shm_after = shm_segments()
    detail["shm_segments"] = {"before": shm_before, "after": shm_after}

    for metric, unit in units.items():
        note = ""
        if not args.trace and metric in summary["round_spread"]:
            note = f"   round spread {summary['round_spread'][metric]:.1%}"
            if metric == "latency_tail_ms":
                note += f"   tail_q={summary['tail_q']} samples={summary['samples']}"
        print(f"{metric:<46}{values[metric]:>18.6g} {unit}{note}")
    if not args.trace:
        print(f"{'failed_share':<46}{summary['failed_share']:>18.6g} ratio   "
              f"ops_attempted={summary['ops_attempted']} ops_failed={summary['ops_failed']}")
        print(f"{'core.lookups_per_s':<46}{summary['lookups_per_s']:>18.6g} 1/s   "
              f"derived: ops_per_s x lookups_per_op={summary['lookups_per_op']}")
    print("detail: " + json.dumps(detail, sort_keys=True, default=str), flush=True)
    result = {
        "correct": summary["ops_failed"] == 0 and shm_after == shm_before,
        "attempted": summary["ops_attempted"],
        "failed": summary["ops_failed"],
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


# --------------------------------------------------------------------------- #
# The full ledger: every workload in its own child process
# --------------------------------------------------------------------------- #
def _child_pass(workload: str, args: argparse.Namespace, trace: int) -> dict[str, Any]:
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    if trace and args.traces:
        Path(args.traces).mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(Path(args.traces) / f"{workload}.spans.json")]
    done = subprocess.run(command, capture_output=True, text=True, check=False, cwd=ROOT)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} (trace={trace}) exited with code {done.returncode}:\n"
                           f"{done.stderr.strip()}")
    tagged = {tag: json.loads(line[len(tag) + 2:]) for line in lines
              for tag in ("env", "detail") if line.startswith(tag + ": ")}
    return {"result": json.loads(lines[-1]), **tagged}


def run_all(args: argparse.Namespace) -> int:
    bounds = compare_module.load_bounds()
    ledger: dict[str, Any] = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        print(f"ledger: {name} untraced ...", file=sys.stderr, flush=True)
        plain = _child_pass(name, args, 0)
        print(f"ledger: {name} traced ...", file=sys.stderr, flush=True)
        traced = _child_pass(name, args, 1)
        ledger.setdefault("environment", plain["env"])
        detail = plain["detail"]
        end_to_end = {
            metric: {**cell, "round_spread": detail["round_spread"].get(metric, 0.0)}
            for metric, cell in plain["result"]["metrics"].items()
        }
        ledger["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "end_to_end": end_to_end,
            "per_layer": traced["result"]["metrics"],
            "ops_attempted": plain["result"]["attempted"],
            "ops_failed": plain["result"]["failed"],
            "failed_share": detail["failed_share"],
            "correct": plain["result"]["correct"] and traced["result"]["correct"],
            "tail_q": detail["tail_q"],
            "samples": detail["samples"],
            "lookups_per_op": detail["lookups_per_op"],
            "lookups_per_s": detail["lookups_per_s"],
            "detail": detail,
            "traced_detail": traced["detail"],
        }
    print_ledger(ledger, bounds)
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return 0 if all(cell["correct"] for cell in ledger["workloads"].values()) else 1


def print_ledger(ledger: dict[str, Any], bounds: dict[str, dict[str, Any]]) -> None:
    names = list(ledger["workloads"])
    print("environment: " + json.dumps(ledger["environment"], sort_keys=True))
    print(f"\nend-to-end (seed {ledger['seed']}, {ledger['seconds']:g} s per pass; a cell whose "
          "spread over its three rounds exceeds the metric's bound is 'unresolved')")
    print(f"{'metric':<18}{'unit':<6}" + "".join(f"{name:>26}" for name in names))
    for metric, unit, _ in runner.END_TO_END:
        cells = []
        for name in names:
            cell = ledger["workloads"][name]["end_to_end"][metric]
            state = "ok" if cell["round_spread"] <= bounds[metric]["bound"] else "unresolved"
            cells.append(f"{cell['value']:>14.4g} {state:<11}")
        print(f"{metric:<18}{unit:<6}" + "".join(cells))
    for label, key, fmt in (("failed_share", "failed_share", ".4g"),
                            ("ops_attempted", "ops_attempted", "d"),
                            ("ops_failed", "ops_failed", "d"),
                            ("tail_q", "tail_q", ".3g"), ("samples", "samples", "d"),
                            ("lookups_per_op", "lookups_per_op", "d"),
                            ("core.lookups_per_s", "lookups_per_s", ".4g")):
        print(f"{label:<24}" + "".join(
            f"{format(ledger['workloads'][name][key], fmt):>14}{'':<12}" for name in names))
    print("\nper-layer (traced pass: probes on fixed shapes + the traced replay of each workload)")
    print(f"{'metric':<46}{'unit':<7}" + "".join(f"{name:>14}" for name in names))
    for metric, unit, _ in PER_LAYER:
        print(f"{metric:<46}{unit:<7}" + "".join(
            f"{ledger['workloads'][name]['per_layer'][metric]['value']:>14.5g}" for name in names))
