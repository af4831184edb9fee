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
                analogue), with static or dynamic scheduling.
``gpu``         Functional execution on the :class:`SimulatedGPU` device
                model, reporting both the measured wall time of the NumPy
                execution and the modelled kernel time on a Tesla-C2075-class
                device.
``native``      The fused pass in the in-repo C kernel (OpenMP, optional
                float32 stack), bit-identical to ``vectorized`` for float64.
==============  ==============================================================

:class:`~repro.core.engine.AggregateRiskEngine` is the public facade that
selects a backend from an :class:`~repro.core.config.EngineConfig`.
"""

from repro.core.chunked import ChunkedEngine
from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine, available_backends
from repro.core.gpu_sim import GPUSimulatedEngine
from repro.core.multicore import MulticoreEngine
from repro.core.plan import ExecutionPlan, PlanBuilder, PlanSegment
from repro.core.phases import (
    PHASE_ELT_LOOKUP,
    PHASE_EVENT_FETCH,
    PHASE_FINANCIAL_TERMS,
    PHASE_LAYER_TERMS,
)
from repro.core.results import (
    EngineResult,
    MetricState,
    PartialResult,
    ResultAccumulator,
)
from repro.core.sequential import SequentialEngine
from repro.core.vectorized import VectorizedEngine

__all__ = [
    "AggregateRiskEngine",
    "EngineConfig",
    "EngineResult",
    "ExecutionPlan",
    "MetricState",
    "PartialResult",
    "PlanBuilder",
    "PlanSegment",
    "ResultAccumulator",
    "available_backends",
    "SequentialEngine",
    "VectorizedEngine",
    "ChunkedEngine",
    "MulticoreEngine",
    "GPUSimulatedEngine",
    "PHASE_EVENT_FETCH",
    "PHASE_ELT_LOOKUP",
    "PHASE_FINANCIAL_TERMS",
    "PHASE_LAYER_TERMS",
]
