"""Spans recorded from outside: the harness wraps each layer's public calls.

The program under test carries no tracing of its own yet, so the traced pass
installs wrappers — from this file — around the public functions and methods
of each layer (:data:`SPAN_POINTS`), records one span per call (name, layer,
start, end, parent, op id) in per-thread in-memory lists, and removes the
wrappers again.  A layer's *self time* is its spans' durations minus the part
their direct children cover.  Nothing is written until the run ends.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping, Sequence

#: Layer of the root span the harness opens around each op.
OP_LAYER = "op"

#: ``(layer, "module:attr" or "module:Class.attr")`` — where spans are recorded.
#: A layer is a module (or package) under ``src/repro``.
SPAN_POINTS: tuple[tuple[str, str], ...] = (
    ("yet", "repro.yet.table:YearEventTable.trial_window"),
    ("yet", "repro.yet.table:YearEventTable.slice_trials"),
    ("portfolio", "repro.portfolio.layer:Layer.loss_matrix"),
    ("portfolio", "repro.portfolio.pricing:price_program"),
    ("elt", "repro.elt.combined:LayerLossMatrix.__init__"),
    ("elt", "repro.elt.combined:LayerLossMatrix.combined_net_losses"),
    ("ylt", "repro.ylt.metrics:compute_risk_metrics"),
    ("ylt", "repro.ylt.table:YearLossTable.__init__"),
    ("ylt", "repro.ylt.table:YearLossTable.portfolio_losses"),
    ("core.plan", "repro.core.plan:PlanBuilder.from_program"),
    ("core.plan", "repro.core.plan:PlanBuilder.from_programs"),
    ("core.plan", "repro.core.plan:ExecutionPlan.stack"),
    ("core.plan", "repro.core.plan:ExecutionPlan.stack_f32"),
    ("core.plan", "repro.core.plan:ExecutionPlan.restrict"),
    ("core.plan", "repro.core.plan:ExecutionPlan.split_result"),
    ("core.plan", "repro.core.plan:finalize_plan_result"),
    ("core.engine", "repro.core.engine:AggregateRiskEngine.run"),
    ("core.engine", "repro.core.engine:AggregateRiskEngine.run_many"),
    ("core.engine", "repro.core.engine:AggregateRiskEngine.run_plan"),
    ("core.kernels", "repro.core.kernels:layer_trial_losses_batch"),
    ("core.kernels", "repro.core.kernels:build_layer_loss_stack"),
    ("core.native", "repro.core.native.build:load_kernels"),
    ("core.native", "repro.core.native.build:NativeKernels.fused_rows"),
    ("core.results", "repro.core.results:ResultAccumulator.add"),
    ("core.results", "repro.core.results:ResultAccumulator.add_result"),
    ("core.results", "repro.core.results:ResultAccumulator.extended"),
    ("core.results", "repro.core.results:ResultAccumulator.year_losses"),
    ("core.results", "repro.core.results:ResultAccumulator.max_occurrence_losses"),
    ("core.results", "repro.core.results:ResultAccumulator.finalize"),
    ("core.results", "repro.core.results:EngineResult.for_layer_subset"),
    ("service.digests", "repro.service.digests:program_digest"),
    ("service.digests", "repro.service.digests:layer_digest"),
    ("service.digests", "repro.service.digests:yet_digest"),
    ("service.digests", "repro.service.digests:yet_prefix_digest"),
    ("service.digests", "repro.service.digests:config_digest"),
    ("service.cache", "repro.service.cache:PlanCache.get_or_build"),
    ("service.cache", "repro.service.cache:PlanCache.peek"),
    ("service.result_cache", "repro.service.result_cache:ResultCache.lookup"),
    ("service.result_cache", "repro.service.result_cache:ResultCache.store"),
    ("service.request", "repro.service.request:AnalysisRequest.from_dict"),
    ("service.request", "repro.service.request:AnalysisRequest.validate"),
    ("service.response", "repro.service.response:AnalysisResponse.to_dict"),
    ("service.service", "repro.service.service:RiskService.prepare"),
    ("service.service", "repro.service.service:PreparedSubmission.execute"),
    ("service.service", "repro.service.service:candidate_variants"),
    ("service.server", "repro.service.server:ServeClient.request"),
)

#: Every layer a share is reported for (``trace.share.<layer>``).
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _ in SPAN_POINTS))


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[list[list[Any]]] = []
        self._register_lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _state(self) -> Any:
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []   # [name, layer, start, end, parent index, op id]
            local.stack = []   # indices of the open spans
            local.op = -1
            with self._register_lock:
                self._threads.append(local.spans)
        return local

    @contextmanager
    def span(self, layer: str, name: str, op_id: int | None = None) -> Iterator[None]:
        local = self._state()
        if op_id is not None:
            local.op = op_id
        record = [name, layer, time.perf_counter(), 0.0,
                  local.stack[-1] if local.stack else -1, local.op]
        local.stack.append(len(local.spans))
        local.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            local.stack.pop()

    def wrap(self, fn: Callable, layer: str, name: str,
             op_from: Callable[..., int | None] | None = None) -> Callable:
        """``fn`` recording one span per call; ``op_from(*args)`` may set the op id."""
        state = self._state
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            local = state()
            if op_from is not None:
                op_id = op_from(*args)
                if op_id is not None:
                    local.op = op_id
            stack = local.stack
            record = [name, layer, clock(), 0.0, stack[-1] if stack else -1, local.op]
            stack.append(len(local.spans))
            local.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------ #
    # Installing the wrappers
    # ------------------------------------------------------------------ #
    def install(self, points: Sequence[tuple[str, str]] = SPAN_POINTS,
                op_from: Mapping[str, Callable[..., int | None]] | None = None) -> None:
        """Wrap every span point; :meth:`uninstall` restores the originals."""
        op_from = op_from or {}
        for layer, target in points:
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            name = f"{module_name.removeprefix('repro.')}:{path}"
            extractor = op_from.get(target)
            if "." in path:
                owner_name, attr = path.split(".", 1)
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped: Any = type(raw)(self.wrap(raw.__func__, layer, name, extractor))
                else:
                    wrapped = self.wrap(raw, layer, name, extractor)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            else:
                original = getattr(module, path)
                wrapped = self.wrap(original, layer, name, extractor)
                # ``from m import f`` binds f in the importing module too:
                # rebind every repro module that holds the original.
                for other in list(sys.modules.values()):
                    if other is None or not getattr(other, "__name__", "").startswith("repro"):
                        continue
                    if other.__dict__.get(path) is original:
                        self._patched.append((other, path, original))
                        setattr(other, path, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Reading the spans back
    # ------------------------------------------------------------------ #
    def spans(self) -> list[dict[str, Any]]:
        """Every finished span, parents re-indexed into one flat list."""
        flat: list[dict[str, Any]] = []
        with self._register_lock:
            threads = list(self._threads)
        for thread_index, spans in enumerate(threads):
            base = len(flat)
            for name, layer, start, end, parent, op_id in list(spans):
                flat.append({
                    "name": name, "layer": layer, "start": start, "end": end,
                    "parent": parent + base if parent >= 0 else -1,
                    "op": op_id, "thread": thread_index,
                })
        return flat


def self_times(spans: Sequence[Mapping[str, Any]]) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    own = [max(span["end"] - span["start"], 0.0) for span in spans]
    for index, span in enumerate(spans):
        parent = span["parent"]
        if parent >= 0:
            own[parent] -= max(span["end"] - span["start"], 0.0)
    return [max(value, 0.0) for value in own]
