"""Simulated-GPU backend.

The backend executes the aggregate analysis *functionally* — one simulated
CUDA block (``threads_per_block`` trials x 1 layer) at a time, with the same
chunked kernel the optimised GPU implementation uses — and, for every layer,
asks the :class:`~repro.parallel.device.SimulatedGPU` cost model how long
the corresponding kernel launch would take on a Tesla-C2075-class device.  The engine result therefore carries two times:

* ``wall_seconds`` — the measured wall-clock time of the NumPy execution on
  the host (useful for comparing against the other Python backends), and
* ``modeled_seconds`` — the modelled device time (the quantity compared
  against the paper's Figures 4, 5 and 6a).

``EngineConfig.threads_per_block`` determines how many trials form one
simulated CUDA block; ``EngineConfig.gpu_chunk_size`` is the number of events
staged per thread per chunk iteration; ``EngineConfig.gpu_optimised`` selects
the basic (global-memory) or optimised (shared-memory, chunked) kernel.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from repro.core.config import EngineConfig
from repro.core.driver import ShardPricer, ShardRun, window_pricer
from repro.core.kernels import layer_trial_losses, layer_trial_losses_chunked
from repro.core.plan import ExecutionPlan
from repro.core.results import EngineResult
from repro.parallel.device import KernelConfig, KernelEstimate, SimulatedGPU, WorkloadShape
from repro.utils.timing import PhaseTimer

__all__ = ["GPUSimulatedEngine"]


class GPUSimulatedEngine(ShardPricer):
    """Functional execution on the simulated many-core device."""

    name = "gpu"
    fuses = False

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        self.device = SimulatedGPU(self.config.gpu_spec)

    def kernel_config(self) -> KernelConfig:
        """The kernel launch configuration implied by the engine config."""
        return KernelConfig(
            threads_per_block=self.config.threads_per_block,
            chunk_size=self.config.gpu_chunk_size,
            optimised=self.config.gpu_optimised,
        )

    def prepare(self, plan: ExecutionPlan, fused: bool, timer: PhaseTimer) -> ShardRun:
        config = self.config
        kernel = layer_trial_losses
        if config.gpu_optimised:
            kernel = partial(
                layer_trial_losses_chunked,
                chunk_events=config.threads_per_block * config.gpu_chunk_size,
            )
        return ShardRun(
            window_pricer(plan, config, fused, kernel=kernel),
            {
                "threads_per_block": config.threads_per_block,
                "chunk_size": config.gpu_chunk_size,
                "optimised": config.gpu_optimised,
                "device": self.device.spec.name,
            },
            block_trials=config.threads_per_block,
        )

    def run_plan(self, plan: ExecutionPlan) -> EngineResult:
        """Execute the plan and attach the modelled device time of every layer."""
        result = super().run_plan(plan)
        kernel_config = self.kernel_config()
        estimates = tuple(
            self.device.estimate(
                WorkloadShape(
                    n_trials=plan.n_trials,
                    events_per_trial=max(plan.yet.mean_events_per_trial, 1e-9),
                    n_elts=layer.n_elts,
                    n_layers=1,
                ),
                kernel_config,
            )
            for layer in plan.layers
        )
        return replace(
            result,
            modeled=estimates,
            modeled_seconds=float(sum(est.seconds for est in estimates)),
        )

    # ------------------------------------------------------------------ #
    # Model-only estimation (used by the full-scale projections)
    # ------------------------------------------------------------------ #
    def estimate_only(self, shape: WorkloadShape) -> KernelEstimate:
        """Modelled kernel time for a workload shape without executing it."""
        return self.device.estimate(shape, self.kernel_config())
