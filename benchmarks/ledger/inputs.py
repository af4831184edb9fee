"""Seeded input generation: every workload's inputs are a function of ``--seed``.

Books come from the program's own :class:`~repro.workloads.WorkloadGenerator`
(so ``workloads.generate_s`` measures that layer); everything derived from a
book — never-seen perturbed copies, term variants, request schedules — is
drawn from :func:`numpy.random.default_rng` keyed on the seed, never from
global state.  Shapes are fixed per workload; only values depend on the seed,
so the work per op is the same on every seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.elt.table import EventLossTable
from repro.financial.terms import LayerTerms
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.workloads.generator import AggregateWorkload, WorkloadGenerator, WorkloadSpec
from repro.yet.table import YearEventTable


@dataclass(frozen=True)
class BookShape:
    """The paper's four workload parameters plus the catalog size."""

    n_layers: int
    elts_per_layer: int
    n_trials: int
    events_per_trial: int
    catalog_size: int

    @property
    def lookups(self) -> int:
        """Stack-row lookups of one pass: layers x event occurrences."""
        return self.n_layers * self.n_trials * self.events_per_trial

    def scaled(self, factor: int) -> "BookShape":
        """Smoke sizes: trials and catalog divided by ``factor``."""
        return BookShape(
            self.n_layers,
            self.elts_per_layer,
            max(self.n_trials // factor, 40),
            self.events_per_trial,
            max(self.catalog_size // factor, 2_000),
        )


def generate_book(seed: int, shape: BookShape) -> AggregateWorkload:
    """One synthetic book (catalog -> ELTs -> layers -> program, and a YET)."""
    spec = WorkloadSpec(
        n_trials=shape.n_trials,
        events_per_trial=shape.events_per_trial,
        n_layers=shape.n_layers,
        elts_per_layer=shape.elts_per_layer,
        catalog_size=shape.catalog_size,
        buildings_per_exposure=60,
        n_regions=32,
        fixed_trial_length=True,
        seed=seed,
    )
    return WorkloadGenerator(spec).generate()


def warm_matrices(program: ReinsuranceProgram) -> None:
    """Build every layer's dense matrix and term-netted row.

    ``Layer.with_terms`` shares a matrix only if it already exists, so term
    variants must be derived *after* this call to share one matrix per layer.
    """
    for layer in program.layers:
        layer.loss_matrix().combined_net_losses()


def perturbed_program(base: ReinsuranceProgram, seed: int, index: int) -> ReinsuranceProgram:
    """A never-seen copy of ``base``: fresh ELT and Layer objects, new losses.

    Every record's loss is scaled by a draw from ``[0.99, 1.01)``, so no
    content digest matches any other copy, and every object is new, so no
    identity-keyed memo can hit either.  Event ids are shared (read-only).
    """
    rng = np.random.default_rng([seed, 0x5EED, index])
    layers = []
    for layer in base.layers:
        elts = [
            EventLossTable(
                elt.event_ids,
                elt.losses * rng.uniform(0.99, 1.01, size=elt.size),
                elt.catalog_size,
                elt.terms,
                elt.name,
            )
            for elt in layer.elts
        ]
        layers.append(Layer(elts, layer.terms, name=layer.name, premium=layer.premium))
    return ReinsuranceProgram(layers, name=f"{base.name}#{index}")


def one_layer_change(
    base: ReinsuranceProgram, row: int, scale: float = 1.1
) -> ReinsuranceProgram:
    """``base`` with layer ``row``'s occurrence retention scaled (same name)."""
    layers = list(base.layers)
    terms = layers[row].terms
    layers[row] = layers[row].with_terms(
        LayerTerms(
            occurrence_retention=terms.occurrence_retention * scale,
            occurrence_limit=terms.occurrence_limit,
            aggregate_retention=terms.aggregate_retention,
            aggregate_limit=terms.aggregate_limit,
        )
    )
    return ReinsuranceProgram(layers, name=base.name)


def uniform_yet(seed: int, n_trials: int, events_per_trial: int, catalog_size: int) -> YearEventTable:
    """A fixed-length YET of uniform event ids (kernel probes; no timestamps)."""
    rng = np.random.default_rng([seed, 0x7E7])
    event_ids = rng.integers(0, catalog_size, size=n_trials * events_per_trial)
    offsets = np.arange(n_trials + 1, dtype=np.int64) * events_per_trial
    return YearEventTable(event_ids, offsets, catalog_size)


def extend_yet(yet: YearEventTable, n_extra: int) -> YearEventTable:
    """``yet`` plus ``n_extra`` appended trials (copies of its first trials).

    The first ``yet.n_trials`` trials are byte-identical to ``yet``, which is
    what makes the result an *append-trials delta* for the result cache.
    """
    stop = int(yet.trial_offsets[n_extra])
    timestamps = None
    if yet.timestamps is not None:
        timestamps = np.concatenate([yet.timestamps, yet.timestamps[:stop]])
    return YearEventTable(
        np.concatenate([yet.event_ids, yet.event_ids[:stop]]),
        np.concatenate([yet.trial_offsets, yet.trial_offsets[1 : n_extra + 1] + yet.n_occurrences]),
        yet.catalog_size,
        timestamps,
    )


def random_stack(seed: int, n_rows: int, catalog_size: int) -> np.ndarray:
    """A dense ``(n_rows, catalog_size)`` term-netted loss stack (kernel probes)."""
    rng = np.random.default_rng([seed, 0x57AC])
    return rng.gamma(2.0, 1.0e4, size=(n_rows, catalog_size))


def spread_terms(n_rows: int) -> list[LayerTerms]:
    """Layer terms for synthetic rows that bind on some trials and not others."""
    return [
        LayerTerms(
            occurrence_retention=5.0e3 * (1 + row % 4),
            occurrence_limit=2.0e5,
            aggregate_retention=1.0e5,
            aggregate_limit=5.0e7,
        )
        for row in range(n_rows)
    ]


# --------------------------------------------------------------------------- #
# Request schedules
# --------------------------------------------------------------------------- #

#: ``requote_warm`` mix per block of 100 ops (kind -> count).
REQUOTE_MIX: dict[str, int] = {"exact": 40, "rows": 35, "variant": 20, "append": 5}

#: ``serve_mixed`` mix per block of 100 requests.
SERVE_MIX: dict[str, int] = {"run": 70, "run_nocache": 15, "run_many": 10, "stats": 5}


def mixed_schedule(
    seed: int, mix: dict[str, int], n_blocks: int, pools: dict[str, int], stream: int = 0
) -> list[tuple[str, int]]:
    """``(kind, argument)`` per op: exact counts per block, seeded order.

    Every block holds exactly the mix's counts (so every seed does the same
    work and only the order differs); ``pools[kind]`` is the size of the
    pool the op's argument indexes (0 = no argument).
    """
    rng = np.random.default_rng([seed, 0x5C4ED, stream])
    kinds = [kind for kind, count in mix.items() for _ in range(count)]
    schedule: list[tuple[str, int]] = []
    for _ in range(n_blocks):
        for position in rng.permutation(len(kinds)):
            kind = kinds[int(position)]
            pool = pools.get(kind, 0)
            schedule.append((kind, int(rng.integers(pool)) if pool else 0))
    return schedule


def schedule_digest(schedule: Sequence[Any]) -> str:
    """Short content digest of a schedule (same seed -> same digest)."""
    blob = json.dumps(list(schedule), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
