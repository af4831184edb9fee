"""Vectorized (whole-shard) backend.

By default (``EngineConfig.fused_layers``) a trial window is priced in one
fused pass: the window's flattened event ids are gathered from every unique
row the plan references (:meth:`~repro.core.plan.ExecutionPlan.rows` — no
stack is assembled), through the process-wide :mod:`~repro.core.row_store`,
and the layer terms are applied as broadcast expressions over the resulting
``(n_rows, n_events)`` matrix.  With ``fused_layers=False`` the window is
priced with one kernel call per layer instead (re-gathering it against each
layer's matrix separately).  Either way this is the "make the inner loops disappear"
translation of the paper's one-thread-per-trial data parallelism to NumPy;
``trial_shards > 1`` bounds the per-pass gather to one shard's events.
"""

from __future__ import annotations

from repro.core.driver import ShardPricer, ShardRun, window_pricer
from repro.core.plan import ExecutionPlan
from repro.utils.timing import PhaseTimer

__all__ = ["VectorizedEngine"]


class VectorizedEngine(ShardPricer):
    """NumPy data-parallel backend operating on whole trial shards at once."""

    name = "vectorized"

    def prepare(self, plan: ExecutionPlan, fused: bool, timer: PhaseTimer) -> ShardRun:
        rows = plan.rows(timer) if fused else None
        return ShardRun(window_pricer(plan, self.config, fused, stack=rows))
