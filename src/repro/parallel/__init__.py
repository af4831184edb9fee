"""Parallel execution substrate.

The paper's parallelisation strategy is "a single thread ... per trial": the
trial loop is embarrassingly parallel and the engineering problem is feeding
the threads data efficiently (OpenMP threads over a shared address space on
the CPU, CUDA blocks with global/shared/constant memory on the GPU).  This
subpackage provides the Python equivalents:

* :mod:`repro.parallel.partitioner` — splitting the trial range into
  contiguous, nearly equal blocks;
* :mod:`repro.parallel.shared_memory` — NumPy arrays backed by
  :mod:`multiprocessing.shared_memory` so that worker processes share the YET
  and the fused loss stack without copying;
* :mod:`repro.parallel.device` — the :class:`SimulatedGPU` device model used
  to reproduce the GPU experiments without CUDA hardware.

The process pool itself (the OpenMP analogue) lives in the multicore
backend, :mod:`repro.core.multicore`.
"""

from repro.parallel.device import GPUSpec, KernelCostModel, KernelEstimate, SimulatedGPU
from repro.parallel.partitioner import TrialRange, block_partition
from repro.parallel.shared_memory import SharedArray, SharedWorkspace

__all__ = [
    "TrialRange",
    "block_partition",
    "SharedArray",
    "SharedWorkspace",
    "GPUSpec",
    "KernelCostModel",
    "KernelEstimate",
    "SimulatedGPU",
]
