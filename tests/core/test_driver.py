"""The one shard driver: unit tests with fake pricers + the architecture guard.

The guard pins the refactor's point — exactly one module in ``repro.core``
turns a plan into a result — so a hand-rolled ``run_plan`` loop cannot creep
back into a backend module or into the distributed coordinator and worker;
the service looks up, merges and stores a ``run`` in one method; one module
owns the socket server and its framing; and the library ships only what it
runs: the GPU/CPU cost models live with the figure scripts in
``benchmarks/paper``, and ``repro.parallel`` is the trial partitioner alone.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.core
import repro.distributed
import repro.parallel
import repro.service.service
from repro.core import multicore as multicore_module
from repro.core.config import BACKEND_NAMES, EngineConfig
from repro.core.driver import ShardPricer, ShardRun, run_plan
from repro.core.engine import AggregateRiskEngine
from repro.core.multicore import MulticoreEngine
from repro.core.plan import PlanBuilder
from repro.financial.terms import LayerTerms
from repro.yet.table import YearEventTable

CORE_DIR = Path(repro.core.__file__).parent
BACKEND_MODULES = (
    "vectorized.py",
    "chunked.py",
    "sequential.py",
    "native_backend.py",
    "multicore.py",
)
DISTRIBUTED_DIR = Path(repro.distributed.__file__).parent
SRC_DIR = CORE_DIR.parent
PARALLEL_DIR = Path(repro.parallel.__file__).parent
SERVICE_MODULE = Path(repro.service.service.__file__)
SHM_DIR = Path("/dev/shm")


# --------------------------------------------------------------------------- #
# Architecture guard
# --------------------------------------------------------------------------- #
def _called_names(path: Path) -> set:
    """Dotted names of everything a module calls (``f(...)``, ``a.b.f(...)``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            parts, func = [], node.func
            while isinstance(func, ast.Attribute):
                parts.append(func.attr)
                func = func.value
            if isinstance(func, ast.Name):
                parts.append(func.id)
            names.add(".".join(reversed(parts)))
    return names


def _imported_modules(path: Path) -> set:
    """Every module a file imports, ``from a import b`` counted as ``a`` and ``a.b``."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def _core_callers(name: str) -> set:
    return {
        path.name for path in sorted(CORE_DIR.glob("*.py")) if name in _called_names(path)
    }


class TestArchitectureGuard:
    def test_only_the_driver_assembles_plan_results(self):
        assert _core_callers("finalize_plan_result") == {"driver.py"}

    def test_only_the_driver_accumulates_a_plan(self):
        assert _core_callers("ResultAccumulator.for_plan") == {"driver.py"}

    def test_the_library_ships_no_cost_model(self):
        """The analytical models are projections for the figure scripts: no
        library module imports ``benchmarks`` or defines one of them."""
        importers, definers = set(), set()
        for path in sorted(SRC_DIR.rglob("*.py")):
            name = path.relative_to(SRC_DIR).as_posix()
            if any(module.split(".")[0] == "benchmarks" for module in _imported_modules(path)):
                importers.add(name)
            classes = {
                node.name
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef)
            }
            if classes & {"SimulatedGPU", "KernelCostModel", "CPUCostModel"}:
                definers.add(name)
        assert importers == set()
        assert definers == set()

    def test_parallel_holds_only_the_partitioner(self):
        assert {path.name for path in PARALLEL_DIR.glob("*.py")} == {
            "__init__.py",
            "partitioner.py",
        }

    @pytest.mark.parametrize("module", BACKEND_MODULES)
    def test_backends_define_no_shard_loop(self, module):
        """A backend prices windows; it never cuts shards or merges partials."""
        source = (CORE_DIR / module).read_text()
        loaded = {
            node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)
        }
        assert not loaded & {"ResultAccumulator", "PartialResult", "finalize_plan_result"}
        called = {name.rsplit(".", 1)[-1] for name in _called_names(CORE_DIR / module)}
        assert not called & {"shard_ranges", "shard_partition", "shard"}

    @pytest.mark.parametrize("module", ("fleet.py", "worker.py"))
    def test_the_fleet_prices_through_the_driver(self, module):
        """Coordinator and worker hand plans to ``run_plan``; neither merges."""
        path = DISTRIBUTED_DIR / module
        named = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
        assert not named & {"ResultAccumulator", "finalize_plan_result"}
        called = {name.rsplit(".", 1)[-1] for name in _called_names(path)}
        assert not called & {"missing_ranges", "finalize", "for_plan"}

    def test_one_socket_server(self):
        """Only ``service/server.py`` listens, accepts or defines the framing:
        the fleet worker is a role on ``RiskServer``, not a second server."""
        owners = set()
        for path in sorted(SRC_DIR.rglob("*.py")):
            called = {name.rsplit(".", 1)[-1] for name in _called_names(path)}
            defined = {
                node.name
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if called & {"start_server", "listen", "accept"} or defined & {
                "send_frame",
                "recv_frame",
            }:
                owners.add(path.relative_to(SRC_DIR).as_posix())
        assert owners == {"service/server.py"}

    def test_one_service_path_prices_merges_and_stores_a_run(self):
        """Cache lookup, residual, fleet pricing, merge and store of a
        ``run``, ``run_many`` or ``sweep`` live in ``RiskService._handle_run``
        alone — no second pricing path, and no per-plan result split."""
        guarded = {
            "lookup", "store", "missing_ranges", "with_rows", "finalize", "run_distributed",
        }
        callers = set()
        for node in ast.walk(ast.parse(SERVICE_MODULE.read_text())):
            if isinstance(node, (ast.ClassDef, ast.Module)):
                for method in node.body:
                    if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    for call in ast.walk(method):
                        if (
                            isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and call.func.attr in guarded
                        ):
                            callers.add((method.name, call.func.attr))
        assert {name for name, _ in callers} == {"_handle_run"}
        assert {attr for _, attr in callers} == guarded
        called = {name.rsplit(".", 1)[-1] for name in _called_names(SERVICE_MODULE)}
        assert not called & {"split_result", "from_programs"}

# --------------------------------------------------------------------------- #
# Driver behaviour with fake pricers
# --------------------------------------------------------------------------- #
class _EventCountPricer(ShardPricer):
    """Row ``r`` of a trial = ``(r + 1) x`` the trial's event count."""

    name = "fake"

    def __init__(self, config=None, reverse=False):
        super().__init__(config)
        self.reverse = reverse
        self.windows = []

    def prepare(self, plan, fused, timer):
        scale = np.arange(1, plan.n_rows + 1, dtype=np.float64)[:, None]

        def price(event_ids, offsets, timer=None):
            self.windows.append(len(offsets) - 1)
            return scale * np.diff(offsets), None

        run = ShardRun(price, {"fake": True})
        if self.reverse:
            in_order = run.map
            run.map = lambda yet, blocks, timer: in_order(yet, blocks[::-1], timer)
        return run


class _ExplodingPricer(ShardPricer):
    name = "fake"

    def prepare(self, plan, fused, timer):
        def price(event_ids, offsets, timer=None):
            raise RuntimeError("pricer blew up")

        return ShardRun(price)


def _exploding_window_price(event_ids, offsets, timer=None, stack=None):
    """Module-level (hence inheritable by forked workers) failing pricer."""
    raise RuntimeError("worker died mid-block")


class TestDriver:
    def test_result_carries_common_and_backend_details(self, tiny_workload):
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        pricer = _EventCountPricer(EngineConfig(trial_shards=3))
        result = pricer.run_plan(plan)
        assert result.backend == "fake"
        assert result.details["fake"] is True
        assert result.details["trial_shards"] == 3
        assert result.details["fused_layers"] is True
        assert result.details["plan"]["n_rows"] == plan.n_rows
        counts = tiny_workload.yet.events_per_trial
        np.testing.assert_array_equal(result.ylt.losses[1], 2.0 * counts)

    def test_shard_order_independence(self, tiny_workload):
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        config = EngineConfig(trial_shards=5)
        in_order = run_plan(plan, config, _EventCountPricer(config))
        reverse = run_plan(plan, config, _EventCountPricer(config, reverse=True))
        np.testing.assert_array_equal(reverse.ylt.losses, in_order.ylt.losses)

    def test_plan_n_shards_overrides_config(self, tiny_workload):
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet, n_shards=2)
        pricer = _EventCountPricer(EngineConfig(trial_shards=5))
        result = pricer.run_plan(plan)
        assert result.details["trial_shards"] == 2
        assert len(pricer.windows) == 2
        assert sum(pricer.windows) == tiny_workload.yet.n_trials

    def test_pricer_exception_propagates(self, tiny_workload):
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        with pytest.raises(RuntimeError, match="pricer blew up"):
            _ExplodingPricer(EngineConfig(trial_shards=2)).run_plan(plan)

    def test_failing_pricer_leaves_no_multicore_workspace(
        self, tiny_workload, monkeypatch, publish_under_fork
    ):
        """The pool's workspace is closed on the exception path too."""
        monkeypatch.setattr(
            multicore_module, "window_pricer", lambda *args, **kwargs: _exploding_window_price
        )
        engine = MulticoreEngine(
            EngineConfig(backend="multicore", n_workers=2, start_method="fork")
        )
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        before = {p.name for p in SHM_DIR.iterdir()} if SHM_DIR.exists() else set()
        with pytest.raises(RuntimeError, match="worker died mid-block"):
            engine.run_plan(plan)
        after = {p.name for p in SHM_DIR.iterdir()} if SHM_DIR.exists() else set()
        assert after - before == set()


# --------------------------------------------------------------------------- #
# Degenerate input: a YET without trials fails at the edge, once
# --------------------------------------------------------------------------- #
def _empty_yet(catalog_size: int) -> YearEventTable:
    return YearEventTable(np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64), catalog_size)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_zero_trial_yet_rejected_naming_the_table(tiny_workload, backend):
    engine = AggregateRiskEngine(EngineConfig(backend=backend))
    with pytest.raises(ValueError, match=r"empty Year Event Table.*YearEventTable.*0 trials"):
        engine.run(tiny_workload.program, _empty_yet(tiny_workload.program.catalog_size))


def test_zero_trial_yet_rejected_by_run_stacked():
    with pytest.raises(ValueError, match=r"empty Year Event Table.*0 trials"):
        AggregateRiskEngine(EngineConfig()).run_stacked(
            np.ones((2, 10)), [LayerTerms()] * 2, _empty_yet(10)
        )
