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
the fused multi-layer kernel: all plan rows are gathered from the rows the
plan references (:meth:`~repro.core.plan.ExecutionPlan.rows`) chunk by
chunk and the per-trial reductions are computed as each chunk is processed.  With
``fused_layers=False`` each layer streams through
:func:`~repro.core.kernels.layer_trial_losses_chunked` — with
``chunk_events = threads_per_block * chunk_size`` that is the year-loss
computation of the paper's optimised GPU kernel, which the Figure 5
benchmarks time.
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

    def prepare(self, plan: ExecutionPlan, fused: bool, timer: PhaseTimer) -> ShardRun:
        chunk_events = self.config.chunk_events
        price = window_pricer(
            plan,
            self.config,
            fused,
            stack=plan.rows(timer) if fused else None,
            chunk_events=chunk_events,
            kernel=partial(layer_trial_losses_chunked, chunk_events=chunk_events),
        )
        return ShardRun(price, {"chunk_events": chunk_events})
