"""Trial partitioning.

The paper's parallelisation strategy is "a single thread ... per trial": the
trial loop is embarrassingly parallel, so every parallel path — the
multicore backend's worker blocks (:mod:`repro.core.multicore`, the OpenMP
analogue), out-of-core and fleet shards — splits the trial range into
contiguous, nearly equal :class:`TrialRange` blocks
(:mod:`repro.parallel.partitioner`).
"""

from repro.parallel.partitioner import TrialRange, block_partition

__all__ = ["TrialRange", "block_partition"]
