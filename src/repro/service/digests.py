"""Content digests for the plan cache.

The :class:`~repro.service.cache.PlanCache` is *content-addressed*: a cache
key is built from SHA-256 digests of everything that determines what an
:class:`~repro.core.plan.ExecutionPlan` (and its fused loss stack) *is* —

* the program's terms and ELT contents (:func:`program_digest`),
* the Year Event Table (:func:`yet_digest`), and
* the plan-relevant :class:`~repro.core.config.EngineConfig` fields
  (:func:`config_digest`, see :data:`PLAN_RELEVANT_CONFIG_FIELDS`).

Two requests that describe the same computation therefore hash to the same
key even when they were built from *different* Python objects (e.g. the
expected program a banded quote reconstructs per request), and any change to
a term, an ELT record, the YET or a relevant config field changes the key —
the cache can never serve a stale plan.

Digesting a large array is not free, so the immutable inputs — Event Loss
Tables, Year Event Tables, and the layers and programs framed over them —
carry their own digest (:class:`repro.utils.digest.Digested`): computed on
first read and stored on the instance, whose digested attributes are all
read-only.  :class:`~repro.service.service.RiskService` reads it when a
submission is registered, so the request path only reads stored values.
The per-object readers below stay as the service's (and the benchmark
tracer's) named entry points.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import EngineConfig
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.utils.digest import hexdigest as _hexdigest
from repro.yet.table import YearEventTable

__all__ = [
    "PLAN_RELEVANT_CONFIG_FIELDS",
    "array_digest",
    "config_digest",
    "layer_digest",
    "plan_relevant_config",
    "program_digest",
    "yet_digest",
    "yet_prefix_digest",
]

#: EngineConfig fields that participate in the plan-cache key: everything
#: that changes the lowered plan, the kernel path taken over it, or the
#: recorded outputs — including the fields only one backend reads
#: (``chunk_events``, the multicore pool's, the native kernel's), whatever
#: backend the config names.  Two fields are left out so that toggling them
#: does not evict warm plans: ``record_phases`` (timing only) and
#: ``replication_block`` (read by the uncertainty analysis, not the engine).
#: These are also exactly the fields a fleet worker accepts on the wire.
PLAN_RELEVANT_CONFIG_FIELDS: tuple[str, ...] = (
    "backend",
    "fused_layers",
    "record_max_occurrence",
    "trial_shards",
    "chunk_events",
    "n_workers",
    "oversubscription",
    "start_method",
    "dtype",
    "native_threads",
)


def array_digest(array: np.ndarray) -> str:
    """SHA-256 of an array's dtype, shape and raw bytes."""
    array = np.ascontiguousarray(array)
    return _hexdigest((array.dtype.str.encode(), repr(array.shape).encode(), array))


def layer_digest(layer: Layer) -> str:
    """Content digest of one layer: its ELT contents, terms and name."""
    return layer.digest


def program_digest(program: ReinsuranceProgram | Layer) -> str:
    """Content digest of a whole program (layer digests + program name; a
    bare layer is wrapped, so its program frame is re-hashed per call)."""
    return ReinsuranceProgram.wrap(program).digest


def yet_digest(yet: YearEventTable) -> str:
    """Content digest of a Year Event Table (its stored ``digest``)."""
    return yet.digest


def yet_prefix_digest(yet: YearEventTable, n_trials: int) -> str:
    """Digest of the first ``n_trials`` trials of ``yet``
    (:meth:`YearEventTable.prefix_digest`)."""
    return yet.prefix_digest(n_trials)


def plan_relevant_config(config: EngineConfig) -> dict:
    """The plan-relevant config fields as a plain ``{name: value}`` dict.

    The wire form of :func:`config_digest`'s input: the distributed
    coordinator ships exactly these fields with each shard request, and the
    worker applies them over its own base config
    (``EngineConfig.replace(**fields)``) — anything the digest covers, and
    only that, determines the numbers a worker produces, so agreeing on
    these fields is what makes the fleet's merge bit-identical.
    """
    return {name: getattr(config, name) for name in PLAN_RELEVANT_CONFIG_FIELDS}


def config_digest(config: EngineConfig) -> str:
    """Digest of the plan-relevant engine-config fields."""
    parts = [b"config"]
    for name in PLAN_RELEVANT_CONFIG_FIELDS:
        parts.append(f"{name}={getattr(config, name)!s}".encode())
    return _hexdigest(parts)
