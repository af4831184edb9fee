"""Content digests for the plan cache.

The :class:`~repro.service.cache.PlanCache` is *content-addressed*: a cache
key is built from SHA-256 digests of everything that determines what an
:class:`~repro.core.plan.ExecutionPlan` (and its fused loss stack) *is* —

* the program's terms and ELT contents (:func:`program_digest`),
* the Year Event Table (:func:`yet_digest`),
* a synthetic stack's rows and terms (:func:`stack_digest`,
  :func:`terms_digest`), and
* the plan-relevant :class:`~repro.core.config.EngineConfig` fields
  (:func:`config_digest`, see :data:`PLAN_RELEVANT_CONFIG_FIELDS`).

Two requests that describe the same computation therefore hash to the same
key even when they were built from *different* Python objects (e.g. the
expected program a banded quote reconstructs per request), and any change to
a term, an ELT record, the YET or a relevant config field changes the key —
the cache can never serve a stale plan.

Digesting a large array is not free, so the per-object digests of the
immutable inputs — Event Loss Tables, Year Event Tables, and the layers and
programs framed over them — are memoized by object identity in a
:class:`weakref.WeakKeyDictionary`: the bytes are hashed once per object
lifetime, and repeated requests against the same objects pay only a
dictionary lookup.  Layers and programs expose the digested attributes as
read-only properties; for ELTs and YETs the memo relies on the library's
convention that they are immutable after construction (mutating one in place
would require clearing the memo via :func:`clear_digest_memo`).
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.config import EngineConfig
from repro.financial.terms import FinancialTerms, LayerTerms
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.yet.table import YearEventTable

__all__ = [
    "PLAN_RELEVANT_CONFIG_FIELDS",
    "array_digest",
    "clear_digest_memo",
    "config_digest",
    "elt_digest",
    "layer_digest",
    "plan_relevant_config",
    "program_digest",
    "stack_digest",
    "terms_digest",
    "yet_digest",
    "yet_prefix_digest",
]

#: EngineConfig fields that participate in the plan-cache key: everything
#: that changes the lowered plan, the kernel path taken over it, or the
#: recorded outputs.  Cosmetic fields (``record_phases``) and fields of other
#: backends are deliberately excluded so that toggling them does not evict
#: warm plans.
PLAN_RELEVANT_CONFIG_FIELDS: tuple[str, ...] = (
    "backend",
    "fused_layers",
    "use_aggregate_shortcut",
    "record_max_occurrence",
    "elt_representation",
    "trial_shards",
    "chunk_events",
    "n_workers",
    "scheduling",
    "oversubscription",
    "start_method",
    "shared_memory",
    "threads_per_block",
    "gpu_chunk_size",
    "gpu_optimised",
    "dtype",
    "native_threads",
)

# Identity-memoized digests of immutable inputs (ELTs, YETs, layers,
# programs).  WeakKeyDictionary: the memo must never keep an object alive.
_MEMO: "weakref.WeakKeyDictionary[object, str]" = weakref.WeakKeyDictionary()

# Per-YET memo of prefix digests ({prefix length: digest}).  The result
# cache computes a prefix digest on every delta lookup against the same
# (immutable) table object; hashing megabytes of prefix bytes per request
# would dwarf the delta kernel pass itself.
_PREFIX_MEMO: "weakref.WeakKeyDictionary[YearEventTable, dict]" = (
    weakref.WeakKeyDictionary()
)


def clear_digest_memo() -> None:
    """Drop every memoized per-object digest (after in-place mutation)."""
    _MEMO.clear()
    _PREFIX_MEMO.clear()


def _hexdigest(parts: Iterable[bytes | np.ndarray]) -> str:
    """SHA-256 over framed parts: ``bytes``, or arrays hashed in place.

    An array part contributes exactly its C-order bytes (what ``tobytes()``
    would return) but is handed to the hash as a buffer, not copied first.
    """
    digest = hashlib.sha256()
    for part in parts:
        # Length-prefix every part: concatenating variable-length fields
        # without a frame is ambiguous (b"ab" + b"c" hashes like b"a" +
        # b"bc"), so a crafted boundary shift could collide two distinct
        # inputs.  An 8-byte big-endian length per part makes the framing
        # injective.
        if type(part) is bytes:  # most parts are short: no buffer wrapping
            size = len(part)
        else:
            part = np.ascontiguousarray(part)  # copies only a strided array
            size = part.nbytes
        digest.update(size.to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


def array_digest(array: np.ndarray) -> str:
    """SHA-256 of an array's dtype, shape and raw bytes."""
    array = np.ascontiguousarray(array)
    return _hexdigest((array.dtype.str.encode(), repr(array.shape).encode(), array))


def _financial_terms_bytes(terms: FinancialTerms) -> bytes:
    return repr((terms.retention, terms.limit, terms.share, terms.fx_rate)).encode()


def _layer_terms_bytes(terms: LayerTerms) -> bytes:
    return repr(
        (
            terms.occurrence_retention,
            terms.occurrence_limit,
            terms.aggregate_retention,
            terms.aggregate_limit,
        )
    ).encode()


def _memoized(obj: object, parts: Callable[[], Iterable[bytes | np.ndarray]]) -> str:
    """``_hexdigest(parts())``, computed once per ``obj`` lifetime."""
    cached = _MEMO.get(obj)
    if cached is None:
        cached = _MEMO[obj] = _hexdigest(parts())
    return cached


def elt_digest(elt) -> str:
    """Content digest of one Event Loss Table (memoized per object)."""
    return _memoized(elt, lambda: (
        b"elt",
        repr(int(elt.catalog_size)).encode(),
        elt.event_ids,
        elt.losses,
        _financial_terms_bytes(elt.terms),
    ))


def layer_digest(layer: Layer) -> str:
    """Content digest of one layer: its ELT contents, terms and name
    (memoized per object — those three attributes are read-only)."""
    return _memoized(layer, lambda: (
        b"layer",
        layer.name.encode(),
        _layer_terms_bytes(layer.terms),
        *(elt_digest(elt).encode() for elt in layer.elts),
    ))


def program_digest(program: ReinsuranceProgram | Layer) -> str:
    """Content digest of a whole program (layer digests + program name;
    memoized per program object, so a bare layer is re-framed per call)."""
    program = ReinsuranceProgram.wrap(program)
    return _memoized(program, lambda: (
        b"program",
        program.name.encode(),
        *(layer_digest(layer).encode() for layer in program.layers),
    ))


def _yet_parts(
    n_trials: int,
    catalog_size: int,
    event_ids: np.ndarray,
    trial_offsets: np.ndarray,
    timestamps: np.ndarray | None,
) -> tuple:
    """The framed parts of a YET digest.

    Covers *every* field of the table: the trial count, the catalog size
    (two YETs sharing events but indexing catalogs of different width must
    never share a key) and the timestamps — both their presence and their
    bytes — alongside the event ids and offsets.
    """
    return (
        b"yet",
        repr(int(n_trials)).encode(),
        repr(int(catalog_size)).encode(),
        event_ids,
        trial_offsets,
        b"ts" if timestamps is not None else b"no-ts",
        timestamps if timestamps is not None else b"",
    )


def yet_digest(yet: YearEventTable) -> str:
    """Content digest of a Year Event Table (memoized per object)."""
    return _memoized(yet, lambda: _yet_parts(
        yet.n_trials, yet.catalog_size, yet.event_ids, yet.trial_offsets, yet.timestamps
    ))


def yet_prefix_digest(yet: YearEventTable, n_trials: int) -> str:
    """Digest of the first ``n_trials`` trials of ``yet``.

    Equals :func:`yet_digest` of ``yet.slice_trials(0, n_trials)`` without
    materialising the slice: a prefix of a YET keeps its offsets verbatim
    (they already start at 0), so the sliced columns are pure views.  This
    is how the :class:`~repro.service.result_cache.ResultCache` recognises
    an **append-trials delta** — a submitted YET whose first ``n`` trials
    are byte-identical to a YET it already holds results for.
    """
    if not 0 <= n_trials <= yet.n_trials:
        raise ValueError(
            f"prefix length {n_trials} outside [0, {yet.n_trials}]"
        )
    if n_trials == yet.n_trials:
        return yet_digest(yet)
    memo = _PREFIX_MEMO.get(yet)
    if memo is None:
        memo = _PREFIX_MEMO[yet] = {}
    cached = memo.get(n_trials)
    if cached is not None:
        return cached
    stop = int(yet.trial_offsets[n_trials])
    digest = _hexdigest(
        _yet_parts(
            n_trials,
            yet.catalog_size,
            yet.event_ids[:stop],
            yet.trial_offsets[: n_trials + 1],
            yet.timestamps[:stop] if yet.timestamps is not None else None,
        )
    )
    memo[n_trials] = digest
    return digest


def stack_digest(stack: np.ndarray) -> str:
    """Content digest of a precomputed loss stack.

    Not memoized: ndarrays are unhashable (so they cannot key the weak memo)
    and hashing even a wide stack is milliseconds — negligible next to the
    kernel pass it guards.
    """
    return array_digest(stack)


def terms_digest(terms: Sequence[LayerTerms]) -> str:
    """Content digest of a sequence of layer terms (``run_stacked`` rows)."""
    return _hexdigest((b"terms", *(_layer_terms_bytes(t) for t in terms)))


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
