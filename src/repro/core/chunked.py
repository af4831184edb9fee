"""Chunked backend: the CPU analogue of the optimised GPU kernel.

The vectorized backend materialises an ``(n_rows, shard_events)`` gather
buffer; for the paper's full-scale workload (15 ELTs x 10^9 events) that is
120 GB — exactly the kind of working set the optimised GPU kernel avoids by
staging fixed-size chunks through shared memory.  This backend applies the
same idea on the CPU: the flattened event stream is processed in
trial-aligned chunks of about ``EngineConfig.chunk_events`` occurrences,
bounding the temporary buffer to ``n_rows x chunk_events`` doubles (and, as
a pleasant side effect, keeping it inside the last-level cache for realistic
chunk sizes).  Chunks are cut at trial boundaries only, so the streamed
result is bit-identical to the unchunked gather for any chunk size, and
``trial_shards`` composes with ``chunk_events`` — the shard bounds what is
resident, the chunk bounds what is gathered.

With ``EngineConfig.fused_layers`` (the default) the chunking happens inside
the fused multi-layer kernel: all plan rows are gathered from the stacked
``(n_rows, catalog_size)`` loss matrix chunk by chunk and the per-trial
reductions are computed as each chunk is processed.  The streaming
accumulation needs the telescoped aggregate shortcut; the
``use_aggregate_shortcut=False`` ablation falls back to the per-layer
chunked kernel (or, for synthetic stacks, to one unchunked cumulative pass).
"""

from __future__ import annotations

from functools import partial

from repro.core.driver import ShardPricer, ShardRun, window_pricer
from repro.core.kernels import layer_trial_losses_chunked
from repro.core.plan import ExecutionPlan
from repro.utils.timing import PhaseTimer

__all__ = ["ChunkedEngine"]


class ChunkedEngine(ShardPricer):
    """NumPy backend streaming each trial shard through fixed-size event chunks."""

    name = "chunked"

    def fused(self, plan: ExecutionPlan) -> bool:
        # Fused streaming needs the telescoped shortcut; programs fall back
        # to the per-layer chunked kernel without it, while a synthetic stack
        # (no per-layer matrices to fall back to) is priced by the fused
        # kernel in one unchunked cumulative pass instead.
        config = self.config
        return not plan.has_layers or (config.fused_layers and config.use_aggregate_shortcut)

    def prepare(self, plan: ExecutionPlan, fused: bool, timer: PhaseTimer) -> ShardRun:
        config = self.config
        chunk_events = (
            config.chunk_events if (not fused or config.use_aggregate_shortcut) else None
        )
        price = window_pricer(
            plan,
            config,
            fused,
            stack=plan.stack(timer) if fused else None,
            chunk_events=chunk_events,
            kernel=partial(layer_trial_losses_chunked, chunk_events=config.chunk_events),
        )
        return ShardRun(price, {"chunk_events": chunk_events})
