"""Engine result containers and the mergeable partial-result algebra.

The paper scales the aggregate analysis by partitioning the Year Event Table
over trials (its map step); this module supplies the matching *reduce* step:

* :class:`EngineResult` — the monolithic output of one run (unchanged shape);
* :class:`PartialResult` — the year-loss block of one disjoint trial shard;
* :class:`ResultAccumulator` — collects partials (in any order, from any
  process) and reassembles the monolithic result *exactly*: trial shards are
  disjoint and every per-trial reduction in the kernels is trial-local, so
  merging is pure column placement — no arithmetic — and the merged output
  is bit-identical to a monolithic run of the same plan;
* :class:`MetricState` — the small mergeable summary (count / sum / sum of
  squares / max per layer row) that streaming consumers can keep without the
  blocks.

The one shard driver (:mod:`repro.core.driver`) is a shard loop + accumulate
on top of these types, which is what makes ``EngineConfig.trial_shards``,
``plan.shard(n)`` and the out-of-core
:meth:`~repro.core.engine.AggregateRiskEngine.run_sharded` path one
mechanism rather than three.
"""

from __future__ import annotations

import io
import json
import os
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator, List, Mapping, Sequence

import numpy as np

from repro.parallel.device import KernelEstimate, WorkloadShape
from repro.parallel.partitioner import TrialRange
from repro.utils.timing import TimingBreakdown
from repro.ylt.table import YearLossTable

__all__ = ["EngineResult", "MetricState", "PartialResult", "ResultAccumulator"]

#: Magic + version of the :meth:`PartialResult.to_bytes` wire format.
_WIRE_MAGIC = b"ARPT"
_WIRE_VERSION = 1
#: Header: magic, u8 version, u8 flags (bit 0: max-occurrence block present).
_WIRE_HEADER = struct.Struct(">4sBB")
#: Big-endian u64 — trial-range endpoints and block-length prefixes.
_WIRE_U64 = struct.Struct(">Q")


@dataclass(frozen=True)
class EngineResult:
    """Output of one aggregate-analysis run.

    Attributes
    ----------
    ylt:
        The Year Loss Table (one row per layer).
    backend:
        Name of the backend that produced the result.
    wall_seconds:
        Measured wall-clock time of the analysis stage (excludes workload
        generation; includes the backend's own data-structure preparation,
        matching the paper's "analysis stage" timing).
    workload_shape:
        Shape of the analysed workload (trials, events/trial, ELTs, layers).
    phase_breakdown:
        Per-phase timing (Fig. 6b) when phase recording was enabled.
    modeled:
        Per-layer simulated-device estimates (GPU backend only).
    modeled_seconds:
        Sum of the modelled kernel times (GPU backend only; ``None`` otherwise).
    details:
        Backend-specific extras (e.g. scheduling information).
    """

    ylt: YearLossTable
    backend: str
    wall_seconds: float
    workload_shape: WorkloadShape
    phase_breakdown: TimingBreakdown | None = None
    modeled: Sequence[KernelEstimate] = field(default_factory=tuple)
    modeled_seconds: float | None = None
    details: Mapping[str, Any] = field(default_factory=dict)

    @property
    def n_trials(self) -> int:
        """Number of trials analysed."""
        return self.ylt.n_trials

    @property
    def n_layers(self) -> int:
        """Number of layers analysed."""
        return self.ylt.n_layers

    @property
    def trials_per_second(self) -> float:
        """Throughput of the run in (layer, trial) pairs per second."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.n_trials * self.n_layers / self.wall_seconds

    def for_layer_subset(
        self,
        indices: Sequence[int],
        extra_details: Mapping[str, Any] | None = None,
    ) -> "EngineResult":
        """A result restricted to the given layer rows.

        Used by :meth:`~repro.core.engine.AggregateRiskEngine.run_many` to
        split a batched multi-program run back into per-program results.  The
        wall time of the shared run is carried over unchanged (the layers
        were priced together; their costs are not separable), and the
        workload shape keeps every dimension except the layer count.
        """
        idx = [int(i) for i in indices]
        if not idx:
            raise ValueError("at least one layer index is required")
        for i in idx:
            if not 0 <= i < self.ylt.n_layers:
                raise IndexError(f"layer index {i} out of range [0, {self.ylt.n_layers})")
        max_occ = self.ylt.max_occurrence_losses
        ylt = YearLossTable(
            self.ylt.losses[idx],
            [self.ylt.layer_names[i] for i in idx],
            max_occ[idx] if max_occ is not None else None,
        )
        details = dict(self.details)
        if extra_details:
            details.update(extra_details)
        modeled = self.modeled
        modeled_seconds = self.modeled_seconds
        if len(modeled) == self.ylt.n_layers:
            modeled = tuple(modeled[i] for i in idx)
            if modeled_seconds is not None:
                modeled_seconds = float(sum(est.seconds for est in modeled))
        return replace(
            self,
            ylt=ylt,
            workload_shape=replace(self.workload_shape, n_layers=len(idx)),
            modeled=modeled,
            modeled_seconds=modeled_seconds,
            details=details,
        )

    def with_extra_details(self, **extra: Any) -> "EngineResult":
        """A copy of this result with ``extra`` merged into ``details``.

        Used by :meth:`~repro.core.engine.AggregateRiskEngine.run_sharded`
        to stamp the out-of-core provenance onto the driver's result.
        """
        details = dict(self.details)
        details.update(extra)
        return replace(self, details=details)

    def summary(self) -> str:
        """One-line human-readable summary of the run."""
        text = (
            f"backend={self.backend} layers={self.n_layers} trials={self.n_trials} "
            f"wall={self.wall_seconds:.4f}s"
        )
        if self.modeled_seconds is not None:
            text += f" modeled={self.modeled_seconds:.3f}s"
        return text


@dataclass(frozen=True)
class MetricState:
    """Mergeable per-layer summary statistics of accumulated year losses.

    The state a streaming consumer can keep when the blocks themselves are
    discarded: per layer row, the trial count, the sum and sum of squares of
    the year losses, and the largest year loss.  Merging two states over
    disjoint shards is exact for ``n_trials`` and ``max_loss`` and adds the
    (deterministically accumulated) sums; quantile metrics (PML, TVaR) need
    the actual blocks — see
    :func:`~repro.ylt.metrics.compute_risk_metrics_from_blocks`.
    """

    n_trials: int
    total: np.ndarray
    total_sq: np.ndarray
    max_loss: np.ndarray

    @classmethod
    def from_losses(cls, losses: np.ndarray) -> "MetricState":
        """The state of one ``(n_rows, n_trials)`` year-loss block."""
        block = np.asarray(losses, dtype=np.float64)
        if block.ndim != 2:
            raise ValueError(f"losses must be 2-D, got shape {block.shape}")
        if block.shape[1] == 0:
            zeros = np.zeros(block.shape[0], dtype=np.float64)
            return cls(0, zeros, zeros.copy(), zeros.copy())
        return cls(
            n_trials=int(block.shape[1]),
            total=block.sum(axis=1),
            total_sq=(block * block).sum(axis=1),
            max_loss=block.max(axis=1),
        )

    def merge(self, other: "MetricState") -> "MetricState":
        """The state of the union of two disjoint shards."""
        if self.total.shape != other.total.shape:
            raise ValueError(
                f"cannot merge metric states over {self.total.shape[0]} and "
                f"{other.total.shape[0]} rows"
            )
        return MetricState(
            n_trials=self.n_trials + other.n_trials,
            total=self.total + other.total,
            total_sq=self.total_sq + other.total_sq,
            max_loss=np.maximum(self.max_loss, other.max_loss),
        )

    def mean(self) -> np.ndarray:
        """Per-row mean year loss (the AAL) over the accumulated trials."""
        if self.n_trials == 0:
            raise ValueError("no trials accumulated")
        return self.total / self.n_trials

    def std(self, ddof: int = 1) -> np.ndarray:
        """Per-row standard deviation of the accumulated year losses."""
        if self.n_trials <= ddof:
            return np.zeros_like(self.total)
        mean = self.mean()
        variance = (self.total_sq - self.n_trials * mean * mean) / (self.n_trials - ddof)
        return np.sqrt(np.maximum(variance, 0.0))


@dataclass(frozen=True)
class PartialResult:
    """The year-loss block of one trial shard.

    Attributes
    ----------
    trials:
        The (globally indexed) trial range the block covers.
    losses:
        ``(n_rows, trials.size)`` year losses — the shard's columns of the
        monolithic Year Loss Table, bit for bit.
    max_occurrence:
        Matching per-trial maximum occurrence losses, or ``None`` when the
        run did not record them.
    details:
        Free-form provenance (e.g. which worker or process produced it).
    """

    trials: TrialRange
    losses: np.ndarray
    max_occurrence: np.ndarray | None = None
    details: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        losses = np.asarray(self.losses, dtype=np.float64)
        if losses.ndim != 2:
            raise ValueError(f"losses must be 2-D (n_rows, n_trials), got shape {losses.shape}")
        if losses.shape[1] != self.trials.size:
            raise ValueError(
                f"losses cover {losses.shape[1]} trials but the range "
                f"[{self.trials.start}, {self.trials.stop}) holds {self.trials.size}"
            )
        object.__setattr__(self, "losses", losses)
        if self.max_occurrence is not None:
            occ = np.asarray(self.max_occurrence, dtype=np.float64)
            if occ.shape != losses.shape:
                raise ValueError(
                    f"max_occurrence shape {occ.shape} does not match losses "
                    f"shape {losses.shape}"
                )
            object.__setattr__(self, "max_occurrence", occ)

    @property
    def n_rows(self) -> int:
        """Number of layer rows in the block."""
        return int(self.losses.shape[0])

    @property
    def n_trials(self) -> int:
        """Number of trials the block covers."""
        return self.trials.size

    @classmethod
    def from_result(
        cls, result: EngineResult, trials: TrialRange | None = None
    ) -> "PartialResult":
        """Wrap a shard-restricted run's :class:`EngineResult` as a partial.

        ``trials`` defaults to the plan trial range the shard driver records in
        ``result.details["plan"]["trial_range"]`` — the global coordinates of
        a plan produced by :meth:`~repro.core.plan.ExecutionPlan.shard`.
        """
        if trials is None:
            plan_details = result.details.get("plan") if result.details else None
            recorded = plan_details.get("trial_range") if plan_details else None
            if recorded is None:
                raise ValueError(
                    "result does not record a plan trial range; pass trials explicitly"
                )
            trials = TrialRange(int(recorded[0]), int(recorded[1]))
        return cls(
            trials=trials,
            losses=result.ylt.losses,
            max_occurrence=result.ylt.max_occurrence_losses,
            details={"backend": result.backend, "wall_seconds": result.wall_seconds},
        )

    # ------------------------------------------------------------------ #
    # Serialization (raw .npy members + a JSON-compatible manifest entry,
    # the idiom of repro.yet.io.save_yet_store)
    # ------------------------------------------------------------------ #
    def save(self, directory: str | os.PathLike, stem: str) -> dict:
        """Write the block's arrays under ``directory`` as raw ``.npy`` files.

        Returns the JSON-compatible manifest entry :meth:`load` needs to
        read the block back: the trial range, the member file names and
        whether a maximum-occurrence member exists.  Raw ``.npy`` members
        (not a zipped ``.npz``) keep the blocks independently readable and
        memory-mappable, mirroring the YET store layout.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        losses_name = f"{stem}.losses.npy"
        np.save(target / losses_name, self.losses)
        entry = {
            "trials": [self.trials.start, self.trials.stop],
            "losses": losses_name,
            "max_occurrence": None,
        }
        if self.max_occurrence is not None:
            occ_name = f"{stem}.max_occurrence.npy"
            np.save(target / occ_name, self.max_occurrence)
            entry["max_occurrence"] = occ_name
        return entry

    @classmethod
    def load(cls, directory: str | os.PathLike, entry: Mapping[str, Any]) -> "PartialResult":
        """Read a block previously written by :meth:`save`."""
        source = Path(directory)
        start, stop = (int(v) for v in entry["trials"])
        occ_name = entry.get("max_occurrence")
        return cls(
            trials=TrialRange(start, stop),
            losses=np.load(source / str(entry["losses"])),
            max_occurrence=np.load(source / str(occ_name)) if occ_name else None,
        )

    # ------------------------------------------------------------------ #
    # Wire format (the distributed worker protocol's payload): the same
    # ``.npy`` blocks save/load writes to disk, packed into one buffer
    # behind a fixed header so a socket peer can frame and validate it.
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Encode the block for the wire (see :meth:`from_bytes`).

        Layout: a ``b"ARPT"`` magic + version + flags header, the trial
        range as two big-endian u64s, a length-prefixed JSON provenance
        blob (:attr:`details`, JSON-compatible values only), then one
        length-prefixed ``.npy`` block per array — the identical bytes
        :meth:`save` would write to disk, so the two serializations cannot
        drift apart.
        """
        flags = 1 if self.max_occurrence is not None else 0
        out = io.BytesIO()
        out.write(_WIRE_HEADER.pack(_WIRE_MAGIC, _WIRE_VERSION, flags))
        out.write(_WIRE_U64.pack(self.trials.start))
        out.write(_WIRE_U64.pack(self.trials.stop))
        details_blob = json.dumps(dict(self.details), sort_keys=True).encode("utf-8")
        out.write(_WIRE_U64.pack(len(details_blob)))
        out.write(details_blob)
        for array in (self.losses, self.max_occurrence):
            if array is None:
                continue
            block = io.BytesIO()
            np.save(block, array)
            blob = block.getvalue()
            out.write(_WIRE_U64.pack(len(blob)))
            out.write(blob)
        return out.getvalue()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "PartialResult":
        """Decode a block encoded by :meth:`to_bytes`.

        Validates the magic, version, and array contract on the way in:
        the losses must decode as a 2-D float64 block whose width matches
        the framed trial range, and the maximum-occurrence block (when the
        flags say one follows) must match its shape — a truncated or
        corrupted payload fails loudly rather than producing a plausible
        but wrong block.
        """
        view = memoryview(payload)
        offset = 0

        def take(n: int, what: str) -> memoryview:
            nonlocal offset
            if offset + n > len(view):
                raise ValueError(
                    f"truncated PartialResult payload: {what} needs {n} bytes "
                    f"at offset {offset}, only {len(view) - offset} remain"
                )
            chunk = view[offset : offset + n]
            offset += n
            return chunk

        magic, version, flags = _WIRE_HEADER.unpack(take(_WIRE_HEADER.size, "header"))
        if magic != _WIRE_MAGIC:
            raise ValueError(f"bad PartialResult magic {bytes(magic)!r}")
        if version != _WIRE_VERSION:
            raise ValueError(f"unsupported PartialResult wire version {version}")
        start = _WIRE_U64.unpack(take(_WIRE_U64.size, "trial start"))[0]
        stop = _WIRE_U64.unpack(take(_WIRE_U64.size, "trial stop"))[0]
        trials = TrialRange(int(start), int(stop))

        def take_block(what: str) -> bytes:
            length = _WIRE_U64.unpack(take(_WIRE_U64.size, f"{what} length"))[0]
            return bytes(take(int(length), what))

        details = json.loads(take_block("details").decode("utf-8"))
        losses = np.load(io.BytesIO(take_block("losses block")), allow_pickle=False)
        if losses.ndim != 2 or losses.dtype != np.float64:
            raise ValueError(
                f"losses block must be 2-D float64, got shape {losses.shape} "
                f"dtype {losses.dtype}"
            )
        if losses.shape[1] != trials.size:
            raise ValueError(
                f"losses block covers {losses.shape[1]} trials but the framed "
                f"range [{trials.start}, {trials.stop}) holds {trials.size}"
            )
        max_occurrence = None
        if flags & 1:
            max_occurrence = np.load(
                io.BytesIO(take_block("max-occurrence block")), allow_pickle=False
            )
            if max_occurrence.shape != losses.shape:
                raise ValueError(
                    f"max-occurrence block shape {max_occurrence.shape} does not "
                    f"match losses shape {losses.shape}"
                )
        if offset != len(view):
            raise ValueError(
                f"PartialResult payload has {len(view) - offset} trailing bytes"
            )
        return cls(
            trials=trials,
            losses=losses,
            max_occurrence=max_occurrence,
            details=details,
        )

    def origin(self) -> str:
        """Human-readable provenance of the block, from :attr:`details`.

        Prefers the distributed worker name, then the shard/process label,
        then the producing backend; falls back to ``"unattributed"`` so the
        overlap diagnostics below always have something to say.
        """
        for key in ("worker", "source", "shard", "backend"):
            value = self.details.get(key) if self.details else None
            if value:
                return f"{key}={value}"
        return "unattributed"


class ResultAccumulator:
    """Exact reduction of disjoint trial-shard partials into one result.

    Parameters
    ----------
    n_rows:
        Number of layer rows every partial must carry.
    trials:
        The full trial domain being covered — a :class:`TrialRange`, or an
        ``int`` shorthand for ``[0, n)``.
    row_names:
        Layer names of the assembled Year Loss Table (optional).

    Partials may arrive in any order (shards complete out of order under
    dynamic scheduling, and distributed callers merge whole accumulators);
    overlapping ranges are rejected at :meth:`add` time.  Because the
    kernels' per-trial reductions are trial-local, reassembly is pure column
    placement and the merged result is bit-identical to a monolithic run —
    the invariant the sharded conformance suite pins down.
    """

    def __init__(
        self,
        n_rows: int,
        trials: TrialRange | int,
        row_names: Sequence[str] | None = None,
    ) -> None:
        if n_rows <= 0:
            raise ValueError(f"n_rows must be positive, got {n_rows}")
        self.n_rows = int(n_rows)
        self.trials = TrialRange(0, int(trials)) if isinstance(trials, int) else trials
        self.row_names: tuple[str, ...] | None = (
            tuple(str(name) for name in row_names) if row_names is not None else None
        )
        self._partials: List[PartialResult] = []
        self._wall_seconds = 0.0

    @classmethod
    def for_plan(cls, plan) -> "ResultAccumulator":
        """An accumulator spanning an :class:`~repro.core.plan.ExecutionPlan`."""
        return cls(plan.n_rows, plan.trials, row_names=plan.row_names)

    # ------------------------------------------------------------------ #
    # Accumulation
    # ------------------------------------------------------------------ #
    def add(self, partial: PartialResult) -> "ResultAccumulator":
        """Add one shard block (any order; overlaps and misfits rejected)."""
        if partial.n_rows != self.n_rows:
            raise ValueError(
                f"partial has {partial.n_rows} rows, accumulator expects {self.n_rows}"
            )
        if partial.trials.start < self.trials.start or partial.trials.stop > self.trials.stop:
            raise ValueError(
                f"partial range [{partial.trials.start}, {partial.trials.stop}) "
                f"({partial.origin()}) outside the accumulated domain "
                f"[{self.trials.start}, {self.trials.stop})"
            )
        for existing in self._partials:
            if (
                partial.trials.start < existing.trials.stop
                and existing.trials.start < partial.trials.stop
            ):
                # Name both ranges AND where each block came from: when a
                # fleet of workers disagrees about shard ownership, the pair
                # of origins is what identifies the double assignment.
                raise ValueError(
                    f"partial range [{partial.trials.start}, {partial.trials.stop}) "
                    f"({partial.origin()}) overlaps accumulated range "
                    f"[{existing.trials.start}, {existing.trials.stop}) "
                    f"({existing.origin()})"
                )
        self._partials.append(partial)
        return self

    def add_result(
        self, result: EngineResult, trials: TrialRange | None = None
    ) -> "ResultAccumulator":
        """Add a shard-restricted run's result (see :meth:`PartialResult.from_result`)."""
        self._wall_seconds += result.wall_seconds
        return self.add(PartialResult.from_result(result, trials))

    def merge(self, other: "ResultAccumulator") -> "ResultAccumulator":
        """Fold another accumulator over the same domain into this one.

        The merge is exact by construction: blocks are moved, never combined
        arithmetically, so merging accumulators built on different processes
        (or machines) yields the same bits as accumulating locally.
        """
        if other.n_rows != self.n_rows or other.trials != self.trials:
            raise ValueError(
                "can only merge accumulators over the same rows and trial domain"
            )
        for partial in other._partials:
            self.add(partial)
        self._wall_seconds += other._wall_seconds
        return self

    def extended(self, trials: TrialRange | int) -> "ResultAccumulator":
        """A new accumulator over a superdomain carrying the same blocks.

        The delta-recomputation entry point: when a YET gains appended
        trials, the cached accumulator's blocks stay valid verbatim (trial
        shards are globally indexed and per-trial reductions are
        trial-local), so extending is pure re-domiciling —
        :meth:`missing_ranges` of the extension is exactly the appended
        range, and pricing only that range then merging reproduces a cold
        monolithic run bit for bit.
        """
        domain = TrialRange(0, int(trials)) if isinstance(trials, int) else trials
        if domain.start > self.trials.start or domain.stop < self.trials.stop:
            raise ValueError(
                f"extended domain [{domain.start}, {domain.stop}) does not "
                f"contain the accumulated domain [{self.trials.start}, {self.trials.stop})"
            )
        extended = ResultAccumulator(self.n_rows, domain, row_names=self.row_names)
        for partial in self._partials:
            extended.add(partial)
        return extended

    # ------------------------------------------------------------------ #
    # Coverage
    # ------------------------------------------------------------------ #
    @property
    def partials(self) -> tuple[PartialResult, ...]:
        """The accumulated blocks in trial order (shared, not copied)."""
        return tuple(self._ordered())

    @property
    def covered_trials(self) -> int:
        """Number of trials accumulated so far."""
        return sum(partial.n_trials for partial in self._partials)

    @property
    def is_complete(self) -> bool:
        """True when the partials tile the whole trial domain."""
        return self.covered_trials == self.trials.size

    @property
    def wall_seconds(self) -> float:
        """Total wall time of the results added via :meth:`add_result`."""
        return self._wall_seconds

    def missing_ranges(self) -> List[TrialRange]:
        """The trial ranges no partial covers yet (empty when complete)."""
        gaps: List[TrialRange] = []
        cursor = self.trials.start
        for partial in sorted(self._partials, key=lambda p: p.trials.start):
            if partial.trials.start > cursor:
                gaps.append(TrialRange(cursor, partial.trials.start))
            cursor = partial.trials.stop
        if cursor < self.trials.stop:
            gaps.append(TrialRange(cursor, self.trials.stop))
        return gaps

    # ------------------------------------------------------------------ #
    # Streaming views
    # ------------------------------------------------------------------ #
    def _ordered(self) -> List[PartialResult]:
        return sorted(self._partials, key=lambda p: p.trials.start)

    def layer_blocks(self, row: int) -> Iterator[np.ndarray]:
        """One layer's year-loss blocks in trial order (views, not copies).

        Feed these to the block-wise metric constructors
        (:func:`~repro.ylt.metrics.compute_risk_metrics_from_blocks`,
        :func:`~repro.ylt.ep_curve.aep_curve_from_blocks`) without ever
        materialising the full per-trial vector in one array.
        """
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range [0, {self.n_rows})")
        for partial in self._ordered():
            yield partial.losses[row]

    def portfolio_blocks(self) -> Iterator[np.ndarray]:
        """Per-trial portfolio losses (sum over rows) in trial order."""
        for partial in self._ordered():
            yield partial.losses.sum(axis=0)

    def max_occurrence_blocks(self, row: int) -> Iterator[np.ndarray]:
        """One layer's maximum-occurrence blocks in trial order (for OEP)."""
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range [0, {self.n_rows})")
        for partial in self._ordered():
            if partial.max_occurrence is None:
                raise ValueError("an accumulated partial lacks maximum occurrence losses")
            yield partial.max_occurrence[row]

    def metric_state(self) -> MetricState:
        """The mergeable summary state of everything accumulated so far.

        Computed over the blocks in trial order, so the state is a pure
        function of the accumulated partials — independent of the order they
        were added or merged in.
        """
        state: MetricState | None = None
        for partial in self._ordered():
            block_state = MetricState.from_losses(partial.losses)
            state = block_state if state is None else state.merge(block_state)
        if state is None:
            zeros = np.zeros(self.n_rows, dtype=np.float64)
            return MetricState(0, zeros, zeros.copy(), zeros.copy())
        return state

    # ------------------------------------------------------------------ #
    # Assembly
    # ------------------------------------------------------------------ #
    def _require_complete(self) -> None:
        if not self.is_complete:
            gaps = ", ".join(f"[{g.start}, {g.stop})" for g in self.missing_ranges())
            raise ValueError(f"accumulator is incomplete; missing trial ranges: {gaps}")

    def year_losses(self) -> np.ndarray:
        """The merged ``(n_rows, n_trials)`` year-loss table (exact)."""
        self._require_complete()
        if len(self._partials) == 1:
            # A single block spanning the domain IS the merged table.
            return self._partials[0].losses
        losses = np.empty((self.n_rows, self.trials.size), dtype=np.float64)
        base = self.trials.start
        for partial in self._partials:
            losses[:, partial.trials.start - base : partial.trials.stop - base] = (
                partial.losses
            )
        return losses

    def max_occurrence_losses(self) -> np.ndarray | None:
        """The merged maximum-occurrence table (``None`` unless all blocks carry one)."""
        self._require_complete()
        if any(partial.max_occurrence is None for partial in self._partials):
            return None
        if len(self._partials) == 1:
            return self._partials[0].max_occurrence
        occ = np.empty((self.n_rows, self.trials.size), dtype=np.float64)
        base = self.trials.start
        for partial in self._partials:
            occ[:, partial.trials.start - base : partial.trials.stop - base] = (
                partial.max_occurrence
            )
        return occ

    def to_ylt(self) -> YearLossTable:
        """The merged Year Loss Table."""
        return YearLossTable(self.year_losses(), self.row_names, self.max_occurrence_losses())

    def finalize(
        self,
        backend: str,
        wall_seconds: float | None = None,
        workload_shape: WorkloadShape | None = None,
        details: Mapping[str, Any] | None = None,
        phase_breakdown: TimingBreakdown | None = None,
    ) -> EngineResult:
        """Assemble the merged :class:`EngineResult`.

        ``wall_seconds`` defaults to the summed wall time of the results
        added via :meth:`add_result`; ``workload_shape`` defaults to a shape
        with the merged trial count and the accumulated row count.
        """
        merged = dict(details) if details else {}
        merged.setdefault(
            "merged_shards",
            {"n_shards": len(self._partials), "n_trials": self.trials.size},
        )
        if workload_shape is None:
            workload_shape = WorkloadShape(
                n_trials=self.trials.size,
                events_per_trial=1e-9,
                n_elts=1,
                n_layers=self.n_rows,
            )
        return EngineResult(
            ylt=self.to_ylt(),
            backend=backend,
            wall_seconds=self._wall_seconds if wall_seconds is None else wall_seconds,
            workload_shape=workload_shape,
            phase_breakdown=phase_breakdown,
            details=merged,
        )
