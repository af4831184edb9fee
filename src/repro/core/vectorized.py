"""Vectorized (whole-shard) backend.

By default (``EngineConfig.fused_layers``) a trial window is priced in one
fused pass: every row's term-netted dense losses are stacked into a single
``(n_rows, catalog_size)`` matrix, the window's flattened event ids are
gathered from it in one fancy-indexing operation, and the layer terms are
applied as broadcast expressions over the resulting ``(n_rows, n_events)``
matrix.  With ``fused_layers=False`` the window is priced with one kernel
call per layer instead (re-gathering it against each layer's matrix
separately).  Either way this is the "make the inner loops disappear"
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
        stack = plan.stack(timer) if fused else None
        return ShardRun(window_pricer(plan, self.config, fused, stack=stack))
