"""The Aggregate Risk Engine (ARE): the paper's primary contribution.

The engine consumes a :class:`~repro.portfolio.program.ReinsuranceProgram`
(layers over ELTs) and a :class:`~repro.yet.table.YearEventTable` and produces
a :class:`~repro.ylt.table.YearLossTable` — one year loss per (layer, trial) —
exactly as specified by the basic algorithm in Section II-B of the paper.

One shard driver (:mod:`repro.core.driver`) turns every plan into a result;
the interchangeable backends only price a shard's event window:

==============  ==============================================================
``sequential``  Pure-Python transcription of the paper's basic algorithm
                (the correctness reference; slow).
``vectorized``  NumPy data-parallel over the whole YET (the fastest
                single-process backend; the functional analogue of "one
                thread per trial" on a throughput device).
``chunked``     NumPy backend that streams the YET through fixed-size event
                chunks, bounding the working set (the analogue of the
                optimised GPU kernel's shared-memory staging).
``multicore``   Multi-process backend over trial blocks (the OpenMP
                analogue): ``n_workers x oversubscription`` blocks.
``native``      The fused pass in the in-repo C kernel (OpenMP, optional
                float32 stack), bit-identical to ``vectorized`` for float64.
==============  ==============================================================

:class:`~repro.core.engine.AggregateRiskEngine` is the public facade that
selects a backend from an :class:`~repro.core.config.EngineConfig`.  The
paper's GPU figures are not a backend and the library does not model them:
their projected kernel times come from a cost model that lives with the
figure scripts (``benchmarks/paper/device.py``).
"""

from repro.core.chunked import ChunkedEngine
from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.multicore import MulticoreEngine
from repro.core.plan import ExecutionPlan, PlanBuilder, PlanSegment
from repro.core.phases import (
    PHASE_ELT_LOOKUP,
    PHASE_EVENT_FETCH,
    PHASE_FINANCIAL_TERMS,
    PHASE_LAYER_TERMS,
)
from repro.core.results import EngineResult, PartialResult, ResultAccumulator
from repro.core.sequential import SequentialEngine
from repro.core.vectorized import VectorizedEngine

__all__ = [
    "AggregateRiskEngine",
    "EngineConfig",
    "EngineResult",
    "ExecutionPlan",
    "PartialResult",
    "PlanBuilder",
    "PlanSegment",
    "ResultAccumulator",
    "SequentialEngine",
    "VectorizedEngine",
    "ChunkedEngine",
    "MulticoreEngine",
    "PHASE_EVENT_FETCH",
    "PHASE_ELT_LOOKUP",
    "PHASE_FINANCIAL_TERMS",
    "PHASE_LAYER_TERMS",
]
