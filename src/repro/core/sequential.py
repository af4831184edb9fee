"""Sequential reference backend.

A line-for-line transcription of the paper's basic algorithm (Section II-B,
lines 1–19) in pure Python: the outer loops iterate over layers and trials,
the inner loops over the trial's events and the layer's ELTs.  It is by far
the slowest backend — that is the point: it is the *correctness reference*
against which every optimised backend is checked, and the baseline the
speedup figures are measured from.  A per-(layer, trial) result depends on
nothing outside its trial, so the reference stays a valid oracle for the
sharded paths too.

The backend also honours ``EngineConfig.elt_representation`` so the Section
III-B data-structure discussion (direct access table vs binary search vs
hashing) can be evaluated on the CPU.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from repro.core.driver import ShardPricer, ShardRun
from repro.core.kernels import per_layer_trial_losses
from repro.core.phases import (
    PHASE_ELT_LOOKUP,
    PHASE_EVENT_FETCH,
    PHASE_FINANCIAL_TERMS,
    PHASE_LAYER_TERMS,
)
from repro.core.plan import ExecutionPlan
from repro.elt.direct_access import DirectAccessTable
from repro.elt.hashed_table import HashedEventLossTable
from repro.elt.sorted_table import SortedEventLossTable
from repro.elt.table import EventLossTable, LossLookup
from repro.utils.timing import PhaseTimer

__all__ = ["SequentialEngine", "build_lookup"]


def build_lookup(elt: EventLossTable, representation: str) -> LossLookup:
    """Build the configured lookup structure for one ELT."""
    if representation == "direct":
        return DirectAccessTable(elt)
    if representation == "sorted":
        return SortedEventLossTable(elt)
    if representation == "hashed":
        return HashedEventLossTable(elt)
    raise ValueError(f"unknown ELT representation {representation!r}")


class SequentialEngine(ShardPricer):
    """Pure-Python reference implementation of the aggregate analysis."""

    name = "sequential"
    fuses = False

    def prepare(self, plan: ExecutionPlan, fused: bool, timer: PhaseTimer) -> ShardRun:
        config = self.config
        # Preprocessing stage: load the ELTs of every layer into the
        # configured lookup structures (the paper's "data is loaded into local
        # memory" step).  Built once, shared by every shard.
        layer_inputs = [
            (
                [build_lookup(elt, config.elt_representation) for elt in layer.elts],
                [elt.terms for elt in layer.elts],
            )
            for layer in plan.layers
        ]
        price = partial(
            per_layer_trial_losses,                                  # line 1: for all a in L
            _layer_trials,
            layer_inputs,
            [layer.terms for layer in plan.layers],
            record_max_occurrence=config.record_max_occurrence,
        )
        return ShardRun(price, {"elt_representation": config.elt_representation})


def _layer_trials(
    layer_input: tuple[list[LossLookup], list],
    event_ids: np.ndarray,
    trial_offsets: np.ndarray,
    terms,
    use_shortcut: bool = True,
    record_max_occurrence: bool = True,
    timer: PhaseTimer | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One layer over a trial window, trial by trial.

    The reference always runs the paper's cumulative aggregate pass, so
    ``use_shortcut`` is accepted (the shared per-layer kernel signature) and
    ignored.
    """
    lookups, elt_terms = layer_input
    timer = timer if timer is not None else PhaseTimer(enabled=False)
    n_trials = len(trial_offsets) - 1
    year_losses = np.zeros(n_trials, dtype=np.float64)
    max_occurrence = np.zeros(n_trials, dtype=np.float64)
    for trial in range(n_trials):                                    # line 2: for all b in YET
        events = event_ids[trial_offsets[trial] : trial_offsets[trial + 1]]
        year_losses[trial], max_occurrence[trial] = _analyse_trial(
            events, lookups, elt_terms, terms, timer
        )
    return year_losses, max_occurrence if record_max_occurrence else None


def _analyse_trial(
    events: np.ndarray,
    lookups: list[LossLookup],
    elt_terms: list,
    terms,
    timer: PhaseTimer,
) -> tuple[float, float]:
    """Year loss and maximum occurrence loss of one trial for one layer (lines 3-19)."""
    record_phases = timer.enabled
    # --- event fetch (line 4: for all d in Et in b) ------------------- #
    if record_phases:
        t0 = time.perf_counter()
    event_list = [int(e) for e in events]
    if record_phases:
        timer.add(PHASE_EVENT_FETCH, time.perf_counter() - t0)

    # --- ELT lookups (lines 3-5) -------------------------------------- #
    if record_phases:
        t0 = time.perf_counter()
    raw_losses: list[list[float]] = []
    for lookup in lookups:                                         # line 3: for all c in ELTs
        raw_losses.append([lookup.lookup(event) for event in event_list])
    if record_phases:
        timer.add(PHASE_ELT_LOOKUP, time.perf_counter() - t0)

    # --- financial terms and combination (lines 6-9) ------------------- #
    if record_phases:
        t0 = time.perf_counter()
    combined = [0.0] * len(event_list)
    for elt_index, losses_for_elt in enumerate(raw_losses):
        ft = elt_terms[elt_index]
        for d, raw in enumerate(losses_for_elt):                   # lines 6-7
            combined[d] += ft.apply(raw)                           # lines 8-9
    if record_phases:
        timer.add(PHASE_FINANCIAL_TERMS, time.perf_counter() - t0)

    # --- layer terms (lines 10-19) ------------------------------------- #
    if record_phases:
        t0 = time.perf_counter()
    max_occurrence = 0.0
    cumulative = 0.0
    previous_net = 0.0
    year_loss = 0.0
    for loss in combined:
        occurrence = terms.apply_occurrence(loss)                  # lines 10-11
        if occurrence > max_occurrence:
            max_occurrence = occurrence
        cumulative += occurrence                                   # lines 12-13
        net = terms.apply_aggregate(cumulative)                    # lines 14-15
        year_loss += net - previous_net                            # lines 16-19
        previous_net = net
    if record_phases:
        timer.add(PHASE_LAYER_TERMS, time.perf_counter() - t0)
    return year_loss, max_occurrence
