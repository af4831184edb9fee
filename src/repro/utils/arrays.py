"""NumPy array helpers used by the vectorized engine backends.

The Year Event Table is a *ragged* structure — each trial has its own number
of events — stored flat as ``event_ids`` plus a ``trial_offsets`` array (the
classic CSR-style layout the paper describes as "a vector consisting of all
``E_{i,k}``" plus "a vector ... indicating trial boundaries").  The helpers in
this module perform per-trial (per-segment) reductions over such flattened
arrays without Python-level loops, which is what makes the vectorized backend
competitive with compiled code.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "read_only",
    "as_float_array",
    "as_int_array",
    "validate_offsets",
    "segment_lengths",
    "segment_sum",
    "segment_max",
    "segment_sum_2d",
    "segment_max_2d",
    "cumulative_within_segments",
]


def read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (the caller's array keeps its flags)."""
    view = array.view()
    view.flags.writeable = False
    return view


def as_float_array(values: Sequence[float] | np.ndarray, name: str = "values") -> np.ndarray:
    """Return ``values`` as a contiguous 1-D float64 array (copying if needed)."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def as_int_array(values: Sequence[int] | np.ndarray, name: str = "values") -> np.ndarray:
    """Return ``values`` as a contiguous 1-D int64 array (copying if needed)."""
    arr = np.ascontiguousarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind == "f" and arr.size and not np.all(np.mod(arr, 1) == 0):
            raise ValueError(f"{name} must contain integers")
        arr = arr.astype(np.int64)
    else:
        arr = arr.astype(np.int64, copy=False)
    return arr


def validate_offsets(offsets: np.ndarray, total: int, name: str = "offsets") -> np.ndarray:
    """Validate a CSR-style offsets array.

    Requirements: 1-D, length >= 1, first element 0, last element ``total``,
    monotonically non-decreasing.
    """
    arr = as_int_array(offsets, name)
    if arr.size < 1:
        raise ValueError(f"{name} must have at least one element")
    if arr[0] != 0:
        raise ValueError(f"{name}[0] must be 0, got {arr[0]}")
    if arr[-1] != total:
        raise ValueError(f"{name}[-1] must equal {total}, got {arr[-1]}")
    if arr.size > 1 and np.any(np.diff(arr) < 0):
        raise ValueError(f"{name} must be non-decreasing")
    return arr


def segment_lengths(offsets: np.ndarray) -> np.ndarray:
    """Lengths of each segment given CSR-style offsets (length ``n_segments``)."""
    offsets = as_int_array(offsets, "offsets")
    if offsets.size < 1:
        raise ValueError("offsets must have at least one element")
    return np.diff(offsets)


def segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of ``values`` within each segment defined by CSR offsets.

    Empty segments produce 0.  Implemented with ``np.add.reduceat`` restricted
    to the non-empty segments (``reduceat`` mishandles empty ones — it returns
    the *next* element instead of the identity).  The reduction is **segment
    local**: each segment's sum is accumulated left to right over that
    segment's values only, so the result for a segment never depends on which
    other segments share the array.  That locality is what makes trial-sharded
    execution exact — a trial's year loss is bit-identical whether its shard
    holds one trial or a million (a cumulative-sum-difference implementation
    would leak prefix rounding across segment boundaries).
    """
    values = np.asarray(values, dtype=np.float64)
    offsets = validate_offsets(np.asarray(offsets), values.shape[0])
    n_seg = offsets.size - 1
    result = np.zeros(n_seg, dtype=np.float64)
    if values.size == 0 or n_seg == 0:
        return result
    non_empty = np.diff(offsets) > 0
    if not np.any(non_empty):
        return result
    starts = offsets[:-1][non_empty]
    result[non_empty] = np.add.reduceat(values, starts)
    return result


def segment_max(values: np.ndarray, offsets: np.ndarray, initial: float = 0.0) -> np.ndarray:
    """Maximum of ``values`` within each segment; ``initial`` for empty segments.

    The occurrence-exceedance-probability (OEP) curve needs the largest single
    occurrence loss per trial, hence ``initial=0`` (a trial with no events has
    zero maximum occurrence loss).
    """
    values = np.asarray(values, dtype=np.float64)
    offsets = validate_offsets(np.asarray(offsets), values.shape[0])
    n_seg = offsets.size - 1
    result = np.full(n_seg, float(initial), dtype=np.float64)
    if values.size == 0 or n_seg == 0:
        return result
    lengths = np.diff(offsets)
    non_empty = lengths > 0
    if not np.any(non_empty):
        return result
    # reduceat is safe when restricted to non-empty segments.
    starts = offsets[:-1][non_empty]
    maxima = np.maximum.reduceat(values, starts)
    result[non_empty] = np.maximum(maxima, float(initial))
    return result


def segment_sum_2d(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Row-wise segment sums of an ``(n_rows, n)`` matrix.

    The fused multi-layer kernel reduces every layer's per-event losses to
    per-trial totals in one call; each row is treated exactly like
    :func:`segment_sum` treats its 1-D input (empty segments produce 0, and
    the reduction is segment local — see there for why that matters to
    trial-sharded execution).  Returns an ``(n_rows, n_segments)`` matrix.
    """
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"values must be 2-D (n_rows, n), got shape {matrix.shape}")
    offsets = validate_offsets(np.asarray(offsets), matrix.shape[1])
    n_seg = offsets.size - 1
    result = np.zeros((matrix.shape[0], n_seg), dtype=np.float64)
    if matrix.shape[1] == 0 or n_seg == 0:
        return result
    non_empty = np.diff(offsets) > 0
    if not np.any(non_empty):
        return result
    starts = offsets[:-1][non_empty]
    result[:, non_empty] = np.add.reduceat(matrix, starts, axis=1)
    return result


def segment_max_2d(
    values: np.ndarray, offsets: np.ndarray, initial: float = 0.0
) -> np.ndarray:
    """Row-wise segment maxima of an ``(n_rows, n)`` matrix.

    The 2-D counterpart of :func:`segment_max`: empty segments yield
    ``initial`` in every row.  Returns an ``(n_rows, n_segments)`` matrix.
    """
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"values must be 2-D (n_rows, n), got shape {matrix.shape}")
    offsets = validate_offsets(np.asarray(offsets), matrix.shape[1])
    n_seg = offsets.size - 1
    result = np.full((matrix.shape[0], n_seg), float(initial), dtype=np.float64)
    if matrix.shape[1] == 0 or n_seg == 0:
        return result
    lengths = np.diff(offsets)
    non_empty = lengths > 0
    if not np.any(non_empty):
        return result
    starts = offsets[:-1][non_empty]
    maxima = np.maximum.reduceat(matrix, starts, axis=1)
    result[:, non_empty] = np.maximum(maxima, float(initial))
    return result


def cumulative_within_segments(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Cumulative sum of ``values`` restarting at every segment boundary.

    This is the vectorized form of the paper's line 13
    (``lox_d = sum_{i<=d} lox_i`` within a trial).  Each segment is summed
    left to right from zero, on its own row of a zero-padded matrix, so its
    prefixes round exactly like a per-trial loop and never depend on the
    magnitude of the segments before it.
    """
    values = np.asarray(values, dtype=np.float64)
    offsets = validate_offsets(np.asarray(offsets), values.shape[0])
    if values.size == 0:
        return np.zeros(0, dtype=np.float64)
    lengths = np.diff(offsets)
    inside = np.arange(lengths.max()) < lengths[:, None]
    padded = np.zeros(inside.shape, dtype=np.float64)
    padded[inside] = values
    return np.cumsum(padded, axis=1)[inside]
