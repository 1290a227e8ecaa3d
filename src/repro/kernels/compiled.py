"""Numba ``@njit`` kernels for the compiled tier.

Importing this module requires the optional ``numba`` dependency; import it
through :func:`repro.kernels.load_compiled` (or guard on
:data:`repro.kernels.HAVE_NUMBA`) so the failure surfaces as a
:class:`~repro.exceptions.KernelError` instead of an ``ImportError``.

Every kernel here is a drop-in for one NumPy hot loop and is locked to it
bit-for-bit by the randomized oracles in ``tests/kernels``:

* :func:`assign_buckets` replays ``np.searchsorted(cuts, values,
  side="left")`` — the binary search compares with the same ``<`` as
  NumPy's, and NaN keys land past every cut exactly as NumPy's sort order
  places them.
* the counting kernels accumulate in tuple order, which is precisely the
  accumulation order of a (weighted) ``np.bincount``, so even the float
  sums of the §5 average operator are bit-identical.

Parallelism (``prange``) is used only where iterations are independent:
across tuples for assignment and across masks for conditional counts.  The
per-bucket scatter updates stay sequential per task, so no kernel ever races
on an output cell.
"""

from __future__ import annotations

import numpy as np
from numba import njit, prange

__all__ = [
    "assign_buckets",
    "bucket_counts",
    "bucket_value_bounds",
    "masked_bucket_counts",
    "masked_bucket_value_bounds",
    "masked_counts_slots",
    "weighted_bucket_sums",
]


@njit(cache=True, parallel=True)
def assign_buckets(values, cuts):
    """``np.searchsorted(cuts, values, side="left")`` fused over the chunk."""
    n = values.shape[0]
    m = cuts.shape[0]
    out = np.empty(n, dtype=np.int64)
    for i in prange(n):
        v = values[i]
        if v != v:
            # NaN sorts above every cut in NumPy's ordering.
            out[i] = m
        else:
            lo = 0
            hi = m
            while lo < hi:
                mid = (lo + hi) >> 1
                if cuts[mid] < v:
                    lo = mid + 1
                else:
                    hi = mid
            out[i] = lo
    return out


@njit(cache=True)
def bucket_counts(indices, cells):
    """``np.bincount(indices, minlength=cells)`` as one scatter loop."""
    out = np.zeros(cells, dtype=np.int64)
    for i in range(indices.shape[0]):
        out[indices[i]] += 1
    return out


@njit(cache=True)
def masked_bucket_counts(indices, mask, cells):
    """``np.bincount(indices[mask], minlength=cells)`` without the gather."""
    out = np.zeros(cells, dtype=np.int64)
    for i in range(indices.shape[0]):
        if mask[i]:
            out[indices[i]] += 1
    return out


@njit(cache=True, parallel=True)
def masked_counts_slots(indices, masks, slots, cells):
    """Conditional counts for several mask rows in one fused pass.

    ``out[j] == np.bincount(indices[masks[slots[j]]], minlength=cells)``;
    the mask rows are independent, so the slot axis runs under ``prange``
    while each slot's scatter stays sequential.  No offset-encoded index
    matrix, no boolean gather — the mask is consulted in place.
    """
    num_slots = slots.shape[0]
    n = indices.shape[0]
    out = np.zeros((num_slots, cells), dtype=np.int64)
    for j in prange(num_slots):
        row = slots[j]
        for i in range(n):
            if masks[row, i]:
                out[j, indices[i]] += 1
    return out


@njit(cache=True)
def weighted_bucket_sums(indices, weights, cells):
    """Weighted ``bincount``: accumulates in tuple order, like NumPy's."""
    out = np.zeros(cells, dtype=np.float64)
    for i in range(indices.shape[0]):
        out[indices[i]] += weights[i]
    return out


@njit(cache=True)
def bucket_value_bounds(values, indices, cells):
    """Per-bucket min/max of ``values`` (NaN for empty buckets)."""
    lows = np.full(cells, np.nan)
    highs = np.full(cells, np.nan)
    for i in range(values.shape[0]):
        bucket = indices[i]
        v = values[i]
        low = lows[bucket]
        if low != low or v < low:
            lows[bucket] = v
        high = highs[bucket]
        if high != high or v > high:
            highs[bucket] = v
    return lows, highs


@njit(cache=True)
def masked_bucket_value_bounds(values, indices, mask, cells):
    """Per-bucket min/max restricted to ``mask`` (NaN where none selected)."""
    lows = np.full(cells, np.nan)
    highs = np.full(cells, np.nan)
    for i in range(values.shape[0]):
        if not mask[i]:
            continue
        bucket = indices[i]
        v = values[i]
        low = lows[bucket]
        if low != low or v < low:
            lows[bucket] = v
        high = highs[bucket]
        if high != high or v > high:
            highs[bucket] = v
    return lows, highs
