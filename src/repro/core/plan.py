"""The ExecutionPlan IR: one workload description for every backend.

The paper's central observation is that aggregate risk analysis is *one*
data-parallel computation — trials x layers over a Year Event Table.  The
plan layer turns that observation into architecture: every engine workload
(``run``, ``run_many``, ``run_stacked``, replication blocks, portfolio
sweeps) lowers to the same intermediate representation, an
:class:`ExecutionPlan` spanning

* the **trial axis** — contiguous trial blocks of the YET, and
* the **row axis** — stacked term-netted layer loss rows (the layout of
  :func:`~repro.core.kernels.build_layer_loss_stack`).

Nothing reimplements a workload: the one shard driver
(:mod:`repro.core.driver`) cuts every plan into trial shards and the
selected backend only *prices* a shard's event window — in one fused NumPy
or C pass, streamed in chunks, mapped over worker processes, one simulated
CUDA block at a time, or trial by trial in the sequential reference.
Scaling features — row deduplication, sharding, streaming — therefore land
once, in the plan and its driver, and apply to every entry point.

Lowering is the job of :class:`PlanBuilder`:

``from_program``
    one program -> one segment of rows, one row per layer;
``from_programs``
    many programs -> one concatenated plan with per-program segments, and
    (by default) *deduplicated* rows: candidate-term variants of the same
    exposure share their term-netted loss row, so the stacked gather reads
    each distinct row once regardless of how many variants reference it;
``from_stack``
    precomputed rows (e.g. the sampled replications of the secondary-
    uncertainty engine) -> a synthetic plan with no source layers.

:meth:`ExecutionPlan.split_result` maps a combined engine result back to one
:class:`~repro.core.results.EngineResult` per segment — the inverse of the
concatenation performed by ``from_programs``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Sequence

import numpy as np

from repro.core.kernels import build_layer_loss_stack
from repro.core.results import EngineResult
from repro.financial.terms import LayerTerms, LayerTermsVectors
from repro.parallel.device import WorkloadShape
from repro.parallel.partitioner import TrialRange, shard_partition
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.utils.timing import PhaseTimer
from repro.yet.table import YearEventTable
from repro.ylt.table import YearLossTable

__all__ = ["ExecutionPlan", "PlanBuilder", "PlanSegment", "finalize_plan_result"]


@dataclass(frozen=True)
class PlanSegment:
    """A contiguous block of plan rows belonging to one logical result.

    ``run`` lowers to a single segment spanning every row; ``run_many`` and
    the portfolio sweep produce one segment per input program.  ``metadata``
    is merged into the split result's ``details`` (e.g. the ``"batch"``
    entry ``run_many`` has always recorded).
    """

    name: str
    start: int
    stop: int
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"invalid segment [{self.start}, {self.stop})")

    @property
    def n_rows(self) -> int:
        """Number of plan rows in the segment."""
        return self.stop - self.start


class ExecutionPlan:
    """IR for one engine workload: stacked loss rows x trials of one YET.

    Parameters
    ----------
    yet:
        The Year Event Table every row is priced over (at least one trial) —
        or, for out-of-core runs, a shard source over a stored table
        (:class:`~repro.yet.io.YetShardReader` and the stores' sources:
        ``n_trials``, ``mean_events_per_trial``, ``shard(trials)``), whose
        columns the shard driver materialises one shard at a time.
    terms:
        Per-row layer terms (``n_rows`` entries).
    layers:
        The source :class:`~repro.portfolio.layer.Layer` objects, one per
        row, when the plan was lowered from programs; ``None`` for synthetic
        stacks (``run_stacked``).  Backends without a fused path (sequential,
        gpu) and the ``fused_layers=False`` ablation need them.
    stack:
        Optional precomputed ``(n_unique_rows, catalog_size)`` stack.  When
        absent it is built lazily (and cached) from the unique layers'
        matrices.
    row_map:
        Optional ``(n_rows,)`` mapping of plan rows to unique stack rows
        (row deduplication); ``None`` means the identity mapping.
    row_names:
        Per-row display names for the Year Loss Table.
    segments:
        How the combined result splits back into logical results; defaults
        to one segment spanning every row.
    source:
        Provenance tag recorded in result details (``"program"``,
        ``"batch"``, ``"stacked"``, ``"sweep"``).
    mean_elts_per_row:
        Average ELT count per row, carried into the result's workload shape.
    trial_range:
        Optional restriction of the plan to a contiguous, non-empty range of
        the YET's trials — the shard-restricted form emitted by
        :meth:`shard`.  ``None`` (the default) covers every trial.  A
        restricted plan executes like any other; its result simply carries
        the shard's columns (and records the range in
        ``details["plan"]["trial_range"]`` so a
        :class:`~repro.core.results.ResultAccumulator` can place them).
    n_shards:
        Shard count the shard driver executes this plan with (``0`` =
        defer to ``EngineConfig.trial_shards``).  Shard-restricted children
        are created with ``n_shards=1`` so they never re-shard themselves.
    """

    def __init__(
        self,
        yet: YearEventTable,
        terms: Sequence[LayerTerms] | LayerTermsVectors,
        *,
        layers: Sequence[Layer] | None = None,
        stack: np.ndarray | None = None,
        row_map: np.ndarray | None = None,
        row_names: Sequence[str] | None = None,
        segments: Sequence[PlanSegment] | None = None,
        source: str = "program",
        mean_elts_per_row: float = 1.0,
        trial_range: TrialRange | None = None,
        n_shards: int = 0,
    ) -> None:
        if yet.n_trials <= 0:
            raise ValueError(
                f"cannot plan over an empty Year Event Table: {yet!r} holds "
                f"{yet.n_trials} trials"
            )
        self.yet = yet
        self.terms = (
            terms if isinstance(terms, LayerTermsVectors) else LayerTermsVectors.from_terms(terms)
        )
        n_rows = self.terms.n_layers
        if n_rows == 0:
            raise ValueError("a plan needs at least one row")

        self.layers: tuple[Layer, ...] | None = tuple(layers) if layers is not None else None
        if self.layers is not None and len(self.layers) != n_rows:
            raise ValueError(
                f"{len(self.layers)} source layers do not match {n_rows} plan rows"
            )

        if row_map is not None:
            row_map = np.ascontiguousarray(row_map, dtype=np.int64)
            if row_map.shape != (n_rows,):
                raise ValueError(
                    f"row_map shape {row_map.shape} does not match {n_rows} plan rows"
                )
            if stack is None and not np.array_equal(
                np.unique(row_map), np.arange(int(row_map.max(initial=-1)) + 1)
            ):
                # Without a precomputed stack the unique rows are built from
                # first-occurrence layers, so the mapping must densely cover
                # 0..k-1 (PlanBuilder always produces such maps); a sparse
                # map would leave unbuildable holes in the stack.
                raise ValueError(
                    "row_map must densely cover 0..k-1 when the stack is "
                    "built from source layers"
                )
        self.row_map = row_map

        self._stack: np.ndarray | None = None
        if stack is not None:
            stack = np.ascontiguousarray(stack, dtype=np.float64)
            if stack.ndim != 2:
                raise ValueError(f"stack must be 2-D, got shape {stack.shape}")
            expected = n_rows if row_map is None else int(row_map.max(initial=-1)) + 1
            if stack.shape[0] < expected:
                raise ValueError(
                    f"stack has {stack.shape[0]} rows but the plan addresses {expected}"
                )
            self._stack = stack
        elif self.layers is None:
            raise ValueError("a plan needs either source layers or a precomputed stack")

        self.row_names: tuple[str, ...] | None = (
            tuple(str(name) for name in row_names) if row_names is not None else None
        )
        if self.row_names is not None and len(self.row_names) != n_rows:
            raise ValueError(
                f"{len(self.row_names)} row names do not match {n_rows} plan rows"
            )

        if segments is None:
            segments = (PlanSegment(name=source, start=0, stop=n_rows),)
        self.segments: tuple[PlanSegment, ...] = tuple(segments)
        covered = sum(segment.n_rows for segment in self.segments)
        if covered != n_rows or any(
            s.stop > n_rows or (i and s.start != self.segments[i - 1].stop)
            for i, s in enumerate(self.segments)
        ):
            raise ValueError("segments must tile the row range contiguously")

        self.source = str(source)
        self.mean_elts_per_row = float(mean_elts_per_row)

        if trial_range is not None:
            if not 0 <= trial_range.start <= trial_range.stop <= yet.n_trials:
                raise ValueError(
                    f"trial range [{trial_range.start}, {trial_range.stop}) outside "
                    f"the YET's [0, {yet.n_trials})"
                )
            if trial_range.size == 0:
                raise ValueError("a shard-restricted plan needs at least one trial")
        self.trial_range = trial_range
        if n_shards < 0:
            raise ValueError(f"n_shards must be non-negative, got {n_shards}")
        self.n_shards = int(n_shards)
        # Shard-restricted children delegate lazy stack building to their
        # parent so a sharded execution builds (and caches) the stack once.
        self._stack_owner: "ExecutionPlan | None" = None
        # Cached plans are shared across threads by the serving layer;
        # the lazy stack build must happen exactly once.
        self._stack_build_lock = threading.Lock()
        # Lazily quantised float32 view of the stack (native backend,
        # EngineConfig.dtype="float32"); invalidated with the stack.
        self._stack_f32: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Shape accessors
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        """Number of plan rows (layers x variants x replications...)."""
        return self.terms.n_layers

    @property
    def n_unique_rows(self) -> int:
        """Number of distinct stack rows the gathers read."""
        if self.row_map is None:
            return self.n_rows
        return int(np.unique(self.row_map).size)

    @property
    def trials(self) -> TrialRange:
        """The (global) trial range the plan covers — the whole YET unless restricted."""
        if self.trial_range is not None:
            return self.trial_range
        return TrialRange(0, self.yet.n_trials)

    @property
    def n_trials(self) -> int:
        """Number of trials the plan covers."""
        return self.trials.size

    @property
    def catalog_size(self) -> int:
        """Size of the event catalog the rows index."""
        if self._stack is not None:
            return int(self._stack.shape[1])
        return self.layers[0].catalog_size

    @property
    def has_layers(self) -> bool:
        """True when the plan carries its source layers (non-synthetic rows)."""
        return self.layers is not None

    def workload_shape(self) -> WorkloadShape:
        """The workload shape recorded on results produced from this plan."""
        return WorkloadShape(
            n_trials=self.n_trials,
            events_per_trial=max(self.yet.mean_events_per_trial, 1e-9),
            n_elts=max(int(round(self.mean_elts_per_row)), 1),
            n_layers=self.n_rows,
        )

    # ------------------------------------------------------------------ #
    # Stack materialisation
    # ------------------------------------------------------------------ #
    def stack(self, timer: PhaseTimer | None = None) -> np.ndarray:
        """The ``(n_unique_rows, catalog_size)`` term-netted loss stack.

        Built lazily from the unique layers' combined net rows and cached on
        the plan, so repeated executions (conformance runs, backend sweeps)
        pay the build once.  Shard-restricted children delegate to the plan
        they were split from, so a sharded execution also builds it once.
        """
        if self._stack is None:
            with self._stack_build_lock:
                if self._stack is not None:  # another thread built it meanwhile
                    return self._stack
                if self._stack_owner is not None:
                    self._stack = self._stack_owner.stack(timer)
                    return self._stack
                if self.row_map is None:
                    matrices = [layer.loss_matrix() for layer in self.layers]
                else:
                    unique_count = int(self.row_map.max()) + 1
                    representatives: List[Layer | None] = [None] * unique_count
                    for row, unique in enumerate(self.row_map):
                        if representatives[unique] is None:
                            representatives[unique] = self.layers[row]
                    matrices = [layer.loss_matrix() for layer in representatives]
                self._stack = build_layer_loss_stack(matrices, timer)
        return self._stack

    def stack_f32(self, timer: PhaseTimer | None = None) -> np.ndarray:
        """The float32 quantisation of :meth:`stack`, built lazily and cached.

        The native backend's ``dtype="float32"`` tier gathers from this copy
        (halving the random-gather bandwidth) while still accumulating in
        double precision, so its results are bit-identical to running the
        float64 pipeline on exactly this quantised stack.  Shard-restricted
        children delegate to their parent, mirroring :meth:`stack`, so a
        sharded or delta-cached execution quantises once.
        """
        if self._stack_f32 is None:
            if self._stack_owner is not None:
                quantised = self._stack_owner.stack_f32(timer)
            else:
                quantised = np.ascontiguousarray(self.stack(timer), dtype=np.float32)
            with self._stack_build_lock:
                if self._stack_f32 is None:
                    self._stack_f32 = quantised
        return self._stack_f32

    def adopt_stack(self, stack: np.ndarray) -> None:
        """Install a precomputed stack (validated like the constructor's).

        Lets repeated lowerings over the *same* rows — above all the
        per-shard plans of :meth:`~repro.core.engine.AggregateRiskEngine.run_sharded`
        — share one stack instead of rebuilding ``n_rows x catalog_size``
        doubles per shard.
        """
        stack = np.ascontiguousarray(stack, dtype=np.float64)
        if stack.ndim != 2:
            raise ValueError(f"stack must be 2-D, got shape {stack.shape}")
        expected = (
            self.n_rows if self.row_map is None else int(self.row_map.max(initial=-1)) + 1
        )
        if stack.shape[0] < expected:
            raise ValueError(
                f"stack has {stack.shape[0]} rows but the plan addresses {expected}"
            )
        self._stack = stack
        self._stack_f32 = None

    @property
    def cached_stack(self) -> np.ndarray | None:
        """The stack if it has been built/adopted already (``None`` otherwise)."""
        return self._stack

    # ------------------------------------------------------------------ #
    # Trial sharding
    # ------------------------------------------------------------------ #
    def restrict(self, trials: TrialRange) -> "ExecutionPlan":
        """A shard of this plan covering only ``trials`` (globally indexed).

        The child shares the parent's YET, terms, layers, row map and (lazy)
        stack cache — restricting is metadata, not data movement.  Executing
        every shard of a disjoint cover and accumulating the partial results
        reproduces the monolithic run bit for bit.
        """
        if not self.trials.start <= trials.start <= trials.stop <= self.trials.stop:
            raise ValueError(
                f"shard range [{trials.start}, {trials.stop}) outside the plan's "
                f"[{self.trials.start}, {self.trials.stop})"
            )
        child = ExecutionPlan(
            self.yet,
            self.terms,
            layers=self.layers,
            stack=self._stack,
            row_map=self.row_map,
            row_names=self.row_names,
            segments=self.segments,
            source=self.source,
            mean_elts_per_row=self.mean_elts_per_row,
            trial_range=trials,
            n_shards=1,
        )
        child._stack_owner = self
        return child

    def shard(self, n_shards: int) -> List["ExecutionPlan"]:
        """Split the plan into at most ``n_shards`` shard-restricted plans.

        The shards are contiguous, disjoint, non-empty and cover the plan's
        trial range in order (:func:`~repro.parallel.partitioner.shard_partition`).
        They can be executed by any backend, in any order, on any process;
        merge their results through a
        :class:`~repro.core.results.ResultAccumulator`.
        """
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        return [self.restrict(trials) for trials in self.shard_ranges(n_shards)]

    def shard_ranges(self, n_shards: int) -> List[TrialRange]:
        """The global trial ranges a shard loop over this plan iterates.

        At most ``n_shards`` contiguous non-empty ranges (one range covering
        everything when ``n_shards <= 1``); the shard driver calls this with
        ``plan.n_shards or config.trial_shards``.
        """
        base = self.trials.start
        return [
            TrialRange(base + local.start, base + local.stop)
            for local in shard_partition(self.n_trials, max(int(n_shards), 1))
        ]

    # ------------------------------------------------------------------ #
    # Result splitting
    # ------------------------------------------------------------------ #
    def split_result(self, result: EngineResult) -> List[EngineResult]:
        """One result per segment, splitting the combined rows back apart."""
        if result.ylt.n_layers != self.n_rows:
            raise ValueError(
                f"result has {result.ylt.n_layers} rows but the plan describes {self.n_rows}"
            )
        if len(self.segments) == 1 and not self.segments[0].metadata:
            return [result]
        return [
            result.for_layer_subset(
                range(segment.start, segment.stop),
                extra_details=dict(segment.metadata) if segment.metadata else None,
            )
            for segment in self.segments
        ]


class PlanBuilder:
    """Lowers the engine's public workloads into :class:`ExecutionPlan`."""

    @staticmethod
    def from_program(
        program: ReinsuranceProgram | Layer,
        yet: YearEventTable,
        n_shards: int = 0,
    ) -> ExecutionPlan:
        """Lower ``run``: one row per layer of one program, one segment.

        ``n_shards`` asks the shard driver to execute the plan as that many
        trial shards (``0`` = defer to ``EngineConfig.trial_shards``); the
        merged result is bit-identical either way.
        """
        program = ReinsuranceProgram.wrap(program)
        return ExecutionPlan(
            yet,
            [layer.terms for layer in program.layers],
            layers=program.layers,
            row_names=program.layer_names,
            source="program",
            mean_elts_per_row=program.mean_elts_per_layer,
            n_shards=n_shards,
        )

    @staticmethod
    def from_programs(
        programs: Sequence[ReinsuranceProgram | Layer],
        yet: YearEventTable,
        dedupe: bool = True,
        source: str = "batch",
        n_shards: int = 0,
    ) -> ExecutionPlan:
        """Lower ``run_many``/sweep blocks: concatenated rows, one segment each.

        With ``dedupe`` (the default) rows whose term-netted losses are
        necessarily identical — layers referencing the *same* ELT objects,
        as produced by :meth:`~repro.portfolio.layer.Layer.with_terms`
        candidate variants — share one stack row via the plan's ``row_map``.
        Identity of the ELT tuple is the dedup key: it can never produce a
        false positive, and it catches exactly the sweep's variant pattern.
        """
        normalised = [ReinsuranceProgram.wrap(program) for program in programs]
        if not normalised:
            raise ValueError("at least one program is required")

        layers: List[Layer] = [layer for program in normalised for layer in program.layers]
        total_rows = len(layers)

        row_map: np.ndarray | None = None
        if dedupe:
            unique_of: dict[tuple[int, ...], int] = {}
            mapping = np.empty(total_rows, dtype=np.int64)
            for row, layer in enumerate(layers):
                key = tuple(id(elt) for elt in layer.elts)
                mapping[row] = unique_of.setdefault(key, len(unique_of))
            if len(unique_of) < total_rows:
                row_map = mapping

        segments: List[PlanSegment] = []
        start = 0
        for index, program in enumerate(normalised):
            stop = start + program.n_layers
            segments.append(
                PlanSegment(
                    name=program.name,
                    start=start,
                    stop=stop,
                    metadata={
                        "batch": {
                            "program": program.name,
                            "index": index,
                            "n_programs": len(normalised),
                            "total_layers": total_rows,
                        }
                    },
                )
            )
            start = stop

        mean_elts = sum(layer.n_elts for layer in layers) / total_rows
        return ExecutionPlan(
            yet,
            [layer.terms for layer in layers],
            layers=layers,
            row_map=row_map,
            row_names=[layer.name for layer in layers],
            segments=segments,
            source=source,
            mean_elts_per_row=mean_elts,
            n_shards=n_shards,
        )

    @staticmethod
    def from_stack(
        stack: np.ndarray,
        terms: Sequence[LayerTerms] | LayerTermsVectors,
        yet: YearEventTable,
        row_names: Sequence[str] | None = None,
        n_shards: int = 0,
    ) -> ExecutionPlan:
        """Lower ``run_stacked``: synthetic precomputed rows, no source layers."""
        return ExecutionPlan(
            yet,
            terms,
            stack=stack,
            row_names=row_names,
            source="stacked",
            n_shards=n_shards,
        )


def finalize_plan_result(
    plan: ExecutionPlan,
    backend_name: str,
    losses: np.ndarray,
    max_occurrence: np.ndarray | None,
    wall_seconds: float,
    details: Mapping[str, Any],
    *,
    phase_breakdown=None,
    modeled: Sequence = (),
    modeled_seconds: float | None = None,
) -> EngineResult:
    """Assemble the :class:`EngineResult` of one plan execution.

    Merges the plan's provenance (source, row counts, dedup factor) into the
    run's ``details``; called by the shard driver, once per run.
    """
    merged = dict(details)
    merged["plan"] = {
        "source": plan.source,
        "n_rows": plan.n_rows,
        "n_unique_rows": plan.n_unique_rows,
        "n_segments": len(plan.segments),
        "trial_range": [plan.trials.start, plan.trials.stop],
    }
    return EngineResult(
        ylt=YearLossTable(losses, plan.row_names, max_occurrence),
        backend=backend_name,
        wall_seconds=wall_seconds,
        workload_shape=plan.workload_shape(),
        phase_breakdown=phase_breakdown,
        modeled=tuple(modeled),
        modeled_seconds=modeled_seconds,
        details=merged,
    )
