"""The one shard driver: unit tests with fake pricers + the architecture guard.

The guard pins the refactor's point — exactly one module in ``repro.core``
turns a plan into a result — so an eighth hand-rolled ``run_plan`` loop
cannot creep back into a backend module.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.core
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
    "gpu_sim.py",
    "multicore.py",
)
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


def _core_callers(name: str) -> set:
    return {
        path.name for path in sorted(CORE_DIR.glob("*.py")) if name in _called_names(path)
    }


class TestArchitectureGuard:
    def test_only_the_driver_assembles_plan_results(self):
        assert _core_callers("finalize_plan_result") == {"driver.py"}

    def test_only_the_driver_accumulates_a_plan(self):
        assert _core_callers("ResultAccumulator.for_plan") == {"driver.py"}

    @pytest.mark.parametrize("module", BACKEND_MODULES)
    def test_backends_define_no_shard_loop(self, module):
        """A backend prices windows; it never cuts shards or merges partials."""
        source = (CORE_DIR / module).read_text()
        loaded = {
            node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)
        }
        assert not loaded & {"ResultAccumulator", "PartialResult", "finalize_plan_result"}
        called = {name.rsplit(".", 1)[-1] for name in _called_names(CORE_DIR / module)}
        assert not called & {"shard_ranges", "shard_partition", "shard", "iter_shards"}


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

    def test_failing_pricer_leaves_no_multicore_workspace(self, tiny_workload, monkeypatch):
        """The pool's workspace is closed on the exception path too."""
        monkeypatch.setattr(
            multicore_module, "window_pricer", lambda *args, **kwargs: _exploding_window_price
        )
        engine = MulticoreEngine(
            EngineConfig(
                backend="multicore", n_workers=2, start_method="fork", shared_memory="on"
            )
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
