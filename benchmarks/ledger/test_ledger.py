"""Self-tests of the ledger harness (smoke sizes; a few seconds).

Not collected by the tier-1 suite (``pytest.ini`` pins ``testpaths = tests``);
run by explicit path::

    python -m pytest -q benchmarks/ledger/test_ledger.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.ledger import compare, inputs, stats  # noqa: E402
from benchmarks.ledger.probes import PER_LAYER  # noqa: E402
from benchmarks.ledger.runner import END_TO_END, attribute, merge_child_spans  # noqa: E402
from benchmarks.ledger.tracer import OP_LAYER, Tracer, self_times  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, str(ROOT / "benchmarks" / "ledger" / "run.py")]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- #
# The tail-percentile rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 0.50), (39, 0.50), (40, 0.75), (100, 0.90), (199, 0.90),
    (200, 0.95), (1_000, 0.99), (9_999, 0.99), (10_000, 0.999),
])
def test_tail_quantile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_quantile(n) == expected


def test_every_workload_tail_q_is_on_the_ladder_with_its_floor():
    for workload in WORKLOADS.values():
        assert workload.tail_q in stats.TAIL_LADDER
        floor = stats.samples_floor(workload.tail_q)
        assert stats.tail_quantile(floor) == workload.tail_q
        assert stats.tail_quantile(floor - 1) != workload.tail_q


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.9) == 90
    assert stats.percentile(values, 1.0) == 100
    assert stats.percentile([7.0], 0.99) == 7.0


def test_rounds_and_spread():
    rounds = stats.split_rounds(list(range(10)))
    assert rounds == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]  # remainder dropped
    assert stats.spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)


# --------------------------------------------------------------------------- #
# Span self-time arithmetic
# --------------------------------------------------------------------------- #
def _span(name, layer, start, end, parent, op=0):
    return {"name": name, "layer": layer, "start": start, "end": end,
            "parent": parent, "op": op, "thread": 0}


def test_self_time_is_duration_minus_direct_children():
    spans = [
        _span("op", OP_LAYER, 0.0, 10.0, -1),
        _span("a", "core.plan", 1.0, 7.0, 0),
        _span("b", "core.kernels", 2.0, 5.0, 1),     # grandchild: not subtracted from op
        _span("c", "core.results", 8.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    shares = attribute(spans)
    assert shares["trace.share.core.plan"] == pytest.approx(0.3)
    assert shares["trace.share.core.kernels"] == pytest.approx(0.3)
    assert shares["trace.share.core.results"] == pytest.approx(0.1)
    assert shares["trace.unattributed_share"] == pytest.approx(0.3)
    total = sum(v for k, v in shares.items() if k.startswith("trace.share."))
    assert total + shares["trace.unattributed_share"] == pytest.approx(1.0)


def test_spans_outside_any_op_are_not_attributed():
    spans = [
        _span("op", OP_LAYER, 0.0, 4.0, -1),
        _span("inside", "core.kernels", 0.0, 2.0, 0),
        _span("oracle", "core.kernels", 5.0, 50.0, -1),   # the check, between ops
        _span("oracle-child", "core.plan", 6.0, 40.0, 2),
    ]
    shares = attribute(spans)
    assert shares["trace.share.core.kernels"] == pytest.approx(0.5)
    assert shares["trace.share.core.plan"] == 0.0


def test_child_process_spans_graft_under_the_clients_request_span():
    spans = [
        _span("op", OP_LAYER, 0.0, 10.0, -1, op=7),
        _span("service.server:ServeClient.request", "service.server", 0.5, 9.5, 0, op=7),
    ]
    child = [
        _span("prepare", "service.service", 100.0, 101.0, -1, op=7),
        _span("digest", "service.digests", 100.2, 100.7, 0, op=7),
        _span("execute", "service.service", 101.0, 104.0, -1, op=7),
        _span("stray", "service.service", 200.0, 201.0, -1, op=99),   # op never traced here
    ]
    merge_child_spans(spans, child)
    assert [s["name"] for s in spans[2:]] == ["prepare", "digest", "execute"]
    assert [s["parent"] for s in spans[2:]] == [1, 2, 1]
    shares = attribute(spans)
    assert shares["trace.share.service.server"] == pytest.approx(0.5)   # 9 - (1 + 3) of 10
    assert shares["trace.share.service.service"] == pytest.approx(0.35)
    assert shares["trace.share.service.digests"] == pytest.approx(0.05)


def test_tracer_nests_spans_and_restores_what_it_wrapped():
    from repro.core import plan as plan_module
    from repro.core.plan import PlanBuilder

    original_static = PlanBuilder.__dict__["from_program"]
    original_function = plan_module.build_layer_loss_stack
    tracer = Tracer()
    tracer.install()
    try:
        assert PlanBuilder.__dict__["from_program"] is not original_static
        assert isinstance(PlanBuilder.__dict__["from_program"], staticmethod)
        assert plan_module.build_layer_loss_stack is not original_function
        with tracer.span(OP_LAYER, "op", op_id=3):
            with tracer.span("core.plan", "outer"):
                with tracer.span("core.kernels", "inner"):
                    pass
    finally:
        tracer.uninstall()
    assert PlanBuilder.__dict__["from_program"] is original_static
    assert plan_module.build_layer_loss_stack is original_function
    spans = tracer.spans()
    assert [s["parent"] for s in spans] == [-1, 0, 1]
    assert {s["op"] for s in spans} == {3}
    assert all(s["end"] >= s["start"] for s in spans)


# --------------------------------------------------------------------------- #
# Seeded schedules
# --------------------------------------------------------------------------- #
def test_same_seed_same_schedule_different_seed_different_schedule():
    pools = {"rows": 16, "variant": 24}
    first = inputs.mixed_schedule(2012, inputs.REQUOTE_MIX, 4, pools)
    again = inputs.mixed_schedule(2012, inputs.REQUOTE_MIX, 4, pools)
    other = inputs.mixed_schedule(7, inputs.REQUOTE_MIX, 4, pools)
    assert inputs.schedule_digest(first) == inputs.schedule_digest(again)
    assert inputs.schedule_digest(first) != inputs.schedule_digest(other)
    second_caller = inputs.mixed_schedule(2012, inputs.REQUOTE_MIX, 4, pools, stream=1)
    assert inputs.schedule_digest(first) != inputs.schedule_digest(second_caller)


def test_every_block_of_a_schedule_holds_exactly_the_mix():
    schedule = inputs.mixed_schedule(5, inputs.SERVE_MIX, 3, {"run": 12})
    assert len(schedule) == 300
    for block in range(3):
        kinds = [kind for kind, _ in schedule[block * 100:(block + 1) * 100]]
        assert {kind: kinds.count(kind) for kind in inputs.SERVE_MIX} == inputs.SERVE_MIX
    assert all(0 <= arg < 12 for kind, arg in schedule if kind == "run")


# --------------------------------------------------------------------------- #
# The comparator
# --------------------------------------------------------------------------- #
def test_verdicts():
    assert compare.verdict(100.0, 105.0, "lower", 0.10) == "ok"
    assert compare.verdict(100.0, 111.0, "lower", 0.10) == "worse"
    assert compare.verdict(100.0, 80.0, "lower", 0.10) == "ok"          # better is never worse
    assert compare.verdict(100.0, 89.0, "higher", 0.10) == "worse"
    assert compare.verdict(100.0, 120.0, "higher", 0.10) == "ok"
    assert compare.verdict(100.0, 105.0, "lower", 0.10, spread_new=0.3) == "unresolved"
    assert compare.verdict(100.0, 130.0, "lower", 0.10, spread_base=0.3) == "worse"


def _ledger(p50: float, failed: int = 0, spread: float = 0.01) -> dict:
    cells = {name: {"value": 10.0, "unit": unit, "round_spread": spread}
             for name, unit, _ in END_TO_END}
    cells["latency_p50_ms"]["value"] = p50
    return {"workloads": {"batch_deep": {
        "end_to_end": cells, "ops_failed": failed, "failed_share": failed / 100}}}


def test_compare_exits_nonzero_only_on_worse(tmp_path, capsys):
    base, same, slow, broken = (tmp_path / name for name in ("a", "b", "c", "d"))
    base.write_text(json.dumps(_ledger(10.0)))
    same.write_text(json.dumps(_ledger(10.5)))
    slow.write_text(json.dumps(_ledger(15.0)))
    broken.write_text(json.dumps(_ledger(10.0, failed=1)))
    assert compare.main(str(base), str(same)) == 0
    assert compare.main(str(base), str(slow)) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main(str(base), str(broken)) == 1   # the bound on failures is 0
    rows = compare.compare(_ledger(10.0, spread=0.5), _ledger(10.2), compare.load_bounds())
    assert {r["verdict"] for r in rows if r["metric"] != "failed_share"} == {"unresolved"}


# --------------------------------------------------------------------------- #
# BENCHMARK.json and what the harness prints are the same names
# --------------------------------------------------------------------------- #
def test_benchmark_json_lists_exactly_the_harness_metrics_and_workloads():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]


def _pass(workload: str, trace: int, seed: int = 11) -> dict:
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
               "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_untraced_pass_prints_exactly_the_end_to_end_metrics():
    result = _pass("serve_mixed", trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for spec in BENCHMARK["end_to_end"]:
        cell = result["metrics"][spec["name"]]
        assert cell["unit"] == spec["unit"] and cell["value"] > 0


def test_traced_pass_prints_exactly_the_per_layer_metrics():
    result = _pass("requote_warm", trace=1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    values = {name: cell["value"] for name, cell in result["metrics"].items()}
    phases = sum(v for k, v in values.items() if k.startswith("core.kernels.phase_"))
    assert phases == pytest.approx(1.0, abs=0.01)             # Fig. 6b shares
    shares = sum(v for k, v in values.items() if k.startswith("trace.share."))
    assert shares + values["trace.unattributed_share"] == pytest.approx(1.0, abs=1e-6)
    assert values["core.native.fallback_count"] == 0
    assert values["parallel.shm_leaked"] == 0
    assert values["service.result_cache.exact_hits"] > 0      # the warm workload hits


def test_fails_cleanly_where_only_the_benchmark_exists(tmp_path):
    """The driver also runs the command in a directory without the program."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks" / "ledger", tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "batch_deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60, check=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
