"""Array-native fast-path solvers (the default mining engine).

The object-based implementations in :mod:`repro.core.optimized_confidence`
and :mod:`repro.core.optimized_support` follow the paper line by line: the
confidence sweep allocates a :class:`~repro.geometry.point.Point` per prefix
point and walks the suffix hulls through Python objects, and the support
solver runs two Python-level passes.  That is ideal as a readable reference,
but the §1.3 catalog workload ("all combinations of hundreds of numeric and
Boolean attributes") calls the solvers thousands of times per relation, so
this module re-implements both in structure-of-arrays form:

* :func:`fast_maximize_ratio` keeps the cumulative points as two parallel
  ``float64`` arrays (hoisted into plain Python float lists, which are much
  faster to index than numpy scalars) and drives the convex-hull-tree sweep
  of Algorithm 4.2 with an int index stack and a flat branch arena — no
  ``Point`` is ever allocated and no function call happens inside the sweep.
* :func:`fast_maximize_support` replaces both passes of Algorithms 4.3/4.4
  with closed-form numpy reductions: the effective indices fall out of a
  running minimum of the cumulative gain table, and every ``top(s)`` pointer
  is answered by one vectorized binary search against the suffix running
  maximum of that table.

:func:`fast_maximize_ratio_many` and :func:`fast_maximize_support_many`
answer a whole stack of profiles per call — the catalog's ``solve_many``
and the §1.4 rectangle bands — with the same selections (see the section
comment above them).

Parity guarantee
----------------
Both functions evaluate exactly the same floating-point comparisons as the
reference implementations (identical operand ordering in the cross products
and cumulative-sum tables), so on profiles whose intermediate products are
exactly representable — in particular integer tuple counts below 2**53,
which covers every confidence/support profile built from a relation — they
return *bit-identical* ``RangeSelection`` results, including tie-breaking.
The oracle tests in ``tests/core/test_fastpath.py`` enforce this.

The defensive invariant check of the reference sweep is preserved: if the
remembered stack position of the previous terminating point ever disagrees
with the hull stack, a :class:`repro.exceptions.HullInvariantWarning` is
emitted and the scan restarts from the hull's left end.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from repro.core.rules import RangeSelection
from repro.core.validation import validate_bucket_arrays, validate_threshold
from repro.exceptions import HullInvariantWarning, ProfileError

__all__ = [
    "fast_maximize_ratio",
    "fast_maximize_support",
    "fast_maximize_ratio_many",
    "fast_maximize_support_many",
    "fast_effective_indices",
]


def fast_maximize_ratio(
    sizes: Sequence[float] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    min_support_count: float,
    total: float | None = None,
) -> RangeSelection | None:
    """Array-native optimized-confidence sweep (Algorithm 4.2).

    Same contract as :func:`repro.core.optimized_confidence.maximize_ratio`:
    among ranges of consecutive buckets whose tuple count reaches
    ``min_support_count``, return the one maximizing ``Σv / Σu`` (ties broken
    towards the larger tuple count), or ``None`` when no range is ample.
    """
    sizes, values = validate_bucket_arrays(sizes, values)
    num_buckets = sizes.shape[0]
    total = float(sizes.sum()) if total is None else float(total)
    min_support_count = float(min_support_count)
    if min_support_count < 0:
        min_support_count = 0.0

    prefix_sizes = np.concatenate(([0.0], np.cumsum(sizes)))
    prefix_values = np.concatenate(([0.0], np.cumsum(values)))
    if prefix_sizes[-1] < min_support_count:
        return None

    # Structure-of-arrays representation of the cumulative points Q_0..Q_M.
    # Plain lists make scalar indexing ~5x faster than numpy item access.
    x = prefix_sizes.tolist()
    y = prefix_values.tolist()
    num_points = num_buckets + 1

    # -- preparatory phase (Algorithm 4.1): right-to-left hull scan ---------
    # Vertices popped when Q_i is inserted form the branch D_i; every point
    # enters exactly one branch, so a flat arena of size num_points suffices.
    stack: list[int] = [num_points - 1]
    branch_data = [0] * num_points
    branch_start = [0] * num_points
    branch_len = [0] * num_points
    arena_top = 0
    for index in range(num_points - 2, -1, -1):
        qx = x[index]
        qy = y[index]
        begin = arena_top
        while len(stack) >= 2:
            top = stack[-1]
            below = stack[-2]
            # compare_slopes(Q_index, Q_top, Q_below) <= 0, expanded to the
            # cross product cross(Q_index, Q_below, Q_top) <= 0.
            if (x[below] - qx) * (y[top] - qy) - (y[below] - qy) * (x[top] - qx) <= 0:
                branch_data[arena_top] = stack.pop()
                arena_top += 1
            else:
                break
        branch_start[index] = begin
        branch_len[index] = arena_top - begin
        stack.append(index)

    # -- restoration phase + tangent sweep (Algorithm 4.2) ------------------
    start = 0  # the stack currently holds the upper hull U_start
    best_anchor = -1
    best_end = -1
    tangent_anchor = -1
    tangent_end = -1
    tangent_position = -1

    for anchor in range(num_buckets):
        # Advance the suffix hull until the range (anchor+1 .. start) is ample.
        anchor_x = x[anchor]
        advanced_past_end = False
        while start <= anchor or x[start] - anchor_x < min_support_count:
            if start >= num_buckets:
                advanced_past_end = True
                break
            stack.pop()
            begin = branch_start[start]
            for position in range(begin + branch_len[start] - 1, begin - 1, -1):
                stack.append(branch_data[position])
            start += 1
        if advanced_past_end:
            # Even the full remaining suffix is not ample; larger anchors
            # only shrink the suffix, so the sweep is over.
            break

        qx = x[anchor]
        qy = y[anchor]

        if tangent_anchor < 0:
            scan_clockwise = True
            resume_position = -1
        else:
            ax = x[tangent_anchor]
            ay = y[tangent_anchor]
            tx = x[tangent_end]
            ty = y[tangent_end]
            # point_above_line(query, anchor, end): cross(anchor, end, query) >= 0.
            if (tx - ax) * (qy - ay) - (ty - ay) * (qx - ax) >= 0:
                # The tangent from this anchor cannot beat the previous one.
                continue
            if tangent_end < start:
                scan_clockwise = True
                resume_position = -1
            else:
                resume_position = tangent_position
                if (
                    resume_position < 0
                    or resume_position >= len(stack)
                    or stack[resume_position] != tangent_end
                ):
                    warnings.warn(
                        "suffix-hull stack position invariant violated at anchor "
                        f"{anchor} (expected point {tangent_end} at position "
                        f"{resume_position}); falling back to a clockwise rescan",
                        HullInvariantWarning,
                        stacklevel=2,
                    )
                    scan_clockwise = True
                    resume_position = -1
                else:
                    scan_clockwise = False

        if scan_clockwise:
            # Scan from the hull's left end towards larger x while the slope
            # from the query keeps improving (ties advance the scan).
            best_position = len(stack) - 1
            bx = x[stack[best_position]]
            by = y[stack[best_position]]
            position = best_position - 1
            while position >= 0:
                candidate = stack[position]
                if (bx - qx) * (y[candidate] - qy) - (by - qy) * (x[candidate] - qx) >= 0:
                    best_position = position
                    bx = x[candidate]
                    by = y[candidate]
                    position -= 1
                else:
                    break
        else:
            # Resume at the previous terminating point and walk towards
            # smaller x while the slope strictly improves.
            best_position = resume_position
            bx = x[stack[best_position]]
            by = y[stack[best_position]]
            position = best_position + 1
            stack_size = len(stack)
            while position < stack_size:
                candidate = stack[position]
                if (bx - qx) * (y[candidate] - qy) - (by - qy) * (x[candidate] - qx) > 0:
                    best_position = position
                    bx = x[candidate]
                    by = y[candidate]
                    position += 1
                else:
                    break

        tangent_anchor = anchor
        tangent_end = stack[best_position]
        tangent_position = best_position

        if best_anchor < 0:
            best_anchor = anchor
            best_end = tangent_end
        else:
            # _beats: strictly better (slope, width) lexicographic key.
            left = (y[tangent_end] - qy) * (x[best_end] - x[best_anchor])
            right = (y[best_end] - y[best_anchor]) * (x[tangent_end] - qx)
            if left > right or (
                left == right
                and x[tangent_end] - qx > x[best_end] - x[best_anchor]
            ):
                best_anchor = anchor
                best_end = tangent_end

    if best_anchor < 0:
        return None
    return RangeSelection(
        start=best_anchor,
        end=best_end - 1,
        support_count=float(prefix_sizes[best_end] - prefix_sizes[best_anchor]),
        objective_value=float(prefix_values[best_end] - prefix_values[best_anchor]),
        total_count=total,
    )


def _effective_starts(cumulative_gain: np.ndarray, num_buckets: int) -> np.ndarray:
    """Effective starting indices from the cumulative gain table ``F``.

    ``s > 0`` is effective when the maximal gain of a range ending at
    ``s - 1`` is negative; that maximal gain is ``F[s] - min(F[0..s-1])``,
    so the whole test collapses to one running minimum.  Index 0 is always
    effective.
    """
    if num_buckets == 1:
        return np.zeros(1, dtype=np.int64)
    running_minimum = np.minimum.accumulate(cumulative_gain[:-1])
    effective = np.empty(num_buckets, dtype=bool)
    effective[0] = True
    effective[1:] = (
        cumulative_gain[1:num_buckets] < running_minimum[: num_buckets - 1]
    )
    return np.flatnonzero(effective)


def fast_effective_indices(
    sizes: Sequence[float] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    min_ratio: float,
) -> np.ndarray:
    """Vectorized Algorithm 4.3: effective starting indices as an int array."""
    sizes, values = validate_bucket_arrays(sizes, values)
    min_ratio = validate_threshold("min_ratio", min_ratio)
    gains = values - min_ratio * sizes
    cumulative = np.concatenate(([0.0], np.cumsum(gains)))
    return _effective_starts(cumulative, sizes.shape[0])


def fast_maximize_support(
    sizes: Sequence[float] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    min_ratio: float,
    total: float | None = None,
) -> RangeSelection | None:
    """Vectorized optimized-support solver (Algorithms 4.3 and 4.4).

    Same contract as :func:`repro.core.optimized_support.maximize_support`:
    the confident range (``Σv / Σu ≥ min_ratio``) with maximal tuple count,
    ties broken towards the smaller starting index, or ``None``.

    The backward sweep is replaced by a batched binary search: with
    ``H[k] = max(F[k..M])`` (suffix running maximum of the cumulative gain
    table), the largest ``k ≥ s+1`` with ``F[k] ≥ F[s]`` is also the largest
    ``k`` with ``H[k] ≥ F[s]`` — if ``H[k+1] < F[s]`` then no later prefix
    qualifies, and ``H[k] ≥ F[s] > H[k+1]`` forces ``H[k] = F[k]``.  Since
    ``H`` is non-increasing, that ``k`` is one ``searchsorted`` per
    effective index, all answered in a single vectorized call.
    """
    sizes, values = validate_bucket_arrays(sizes, values)
    min_ratio = validate_threshold("min_ratio", min_ratio)
    num_buckets = sizes.shape[0]
    total = float(sizes.sum()) if total is None else float(total)

    gains = values - min_ratio * sizes
    cumulative_gain = np.concatenate(([0.0], np.cumsum(gains)))
    prefix_sizes = np.concatenate(([0.0], np.cumsum(sizes)))
    prefix_values = np.concatenate(([0.0], np.cumsum(values)))

    starts = _effective_starts(cumulative_gain, num_buckets)

    # H[k] = max(F[k..M]); reversed it is non-decreasing, so searchsorted
    # finds the first reversed position whose suffix maximum reaches F[s].
    suffix_maximum = np.maximum.accumulate(cumulative_gain[::-1])[::-1]
    last_index = cumulative_gain.shape[0] - 1  # == num_buckets
    reversed_positions = np.searchsorted(
        suffix_maximum[::-1], cumulative_gain[starts], side="left"
    )
    ends = last_index - reversed_positions  # largest k with F[k] >= F[s]
    valid = ends >= starts + 1
    if not np.any(valid):
        return None

    valid_starts = starts[valid]
    valid_ends = ends[valid]
    counts = prefix_sizes[valid_ends] - prefix_sizes[valid_starts]
    # argmax returns the first maximum; starts are ascending, so ties break
    # towards the smaller starting index exactly as the reference does.
    winner = int(np.argmax(counts))
    best_start = int(valid_starts[winner])
    best_end = int(valid_ends[winner]) - 1
    return RangeSelection(
        start=best_start,
        end=best_end,
        support_count=float(prefix_sizes[best_end + 1] - prefix_sizes[best_start]),
        objective_value=float(prefix_values[best_end + 1] - prefix_values[best_start]),
        total_count=total,
    )


# -- stacked batch entry points ----------------------------------------------
#
# The §1.3 catalog solves hundreds of same-kind profiles over one bucketing
# (every Boolean objective against each numeric attribute), and the §1.4
# rectangle search collapses every pair of grid rows into one column-count
# row — R(R+1)/2 one-dimensional problems over the *same* number of columns.
# Calling the scalar solvers in a Python loop makes the per-call overhead
# (validation, prefix sums, sweep setup) dominate, so the entry points below
# accept a whole (num_rows, num_buckets) stack at once and answer every row
# from shared 2-D numpy reductions.
#
# Stacked rows may contain empty buckets (``u_i == 0``) — a row band of a
# sparse grid usually does.  Empty buckets are *ignored*: each row behaves
# exactly as if its zero-size buckets were compacted away, the scalar solver
# run on the compacted arrays, and the winning indices mapped back to the
# full row (``start``/``end`` always point at non-empty buckets).  On
# integer-count profiles the returned selections are bit-identical to that
# per-row procedure — zero buckets contribute exactly 0.0 to every prefix
# sum, and every ratio comparison is an exact cross product below 2**53 —
# the same envelope as the scalar solvers' exact-product guarantee.
#
# Complexity: both stacked solvers are O(M) (ratio, per parametric step) or
# O(M log M) (support) per row, like the scalar sweeps, so one stacked call
# is the right shape for any row width — a few wide catalog profiles as
# much as hundreds of narrow grid bands.

# Prefix points per block of rows solved together by the parametric ratio
# sweep (32 rows at M=1000, hundreds of narrow grid bands).  Each block
# streams a dozen (rows, M+1) float64 temporaries, so this keeps the working
# set at a few MiB; larger blocks run slower, not faster.
_SOLVE_BLOCK_POINTS = 32_768


def _validate_stacked_arrays(
    sizes: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a stacked (num_rows, num_buckets) profile matrix pair."""
    sizes = np.asarray(sizes, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if sizes.ndim != 2 or values.ndim != 2:
        raise ProfileError("stacked bucket arrays must be two-dimensional")
    if sizes.shape != values.shape:
        raise ProfileError(
            f"stacked bucket arrays must have equal shapes, got {sizes.shape} "
            f"sizes and {values.shape} values"
        )
    if sizes.shape[1] == 0:
        raise ProfileError("at least one bucket is required")
    if not np.all(np.isfinite(sizes)) or not np.all(np.isfinite(values)):
        raise ProfileError("stacked bucket arrays must be finite")
    if np.any(sizes < 0):
        raise ProfileError("stacked bucket sizes must be non-negative")
    return sizes, values


def _per_row(value, num_rows: int) -> np.ndarray:
    """A scalar or per-row parameter as a ``(num_rows,)`` float64 array."""
    return np.broadcast_to(np.asarray(value, dtype=np.float64), (num_rows,))


def _prefix_sums(matrix: np.ndarray) -> np.ndarray:
    """Row-wise prefix sums with a leading zero column: ``(rows, M+1)``."""
    prefix = np.zeros((matrix.shape[0], matrix.shape[1] + 1))
    np.cumsum(matrix, axis=1, out=prefix[:, 1:])
    return prefix


def _kept_neighbors(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per position: the nearest non-empty bucket at-or-after / at-or-before.

    ``next_kept[r, i]`` is the smallest ``j >= i`` with ``sizes[r, j] > 0``
    (``num_buckets`` when none) and ``previous_kept[r, i]`` the largest
    ``j <= i`` (``-1`` when none).  Both solvers snap winning indices onto
    non-empty buckets with these — one shared definition so the two stacked
    solvers can never drift apart.
    """
    num_buckets = sizes.shape[1]
    positions = np.arange(num_buckets)
    if np.all(sizes > 0):
        every = np.broadcast_to(positions, sizes.shape)
        return every, every
    next_kept = np.minimum.accumulate(
        np.where(sizes > 0, positions, num_buckets)[:, ::-1], axis=1
    )[:, ::-1]
    previous_kept = np.maximum.accumulate(
        np.where(sizes > 0, positions, -1), axis=1
    )
    return next_kept, previous_kept


def _gather(matrix: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``matrix[r, index[r, j]]`` for every ``(r, j)``, as one flat ``take``."""
    offsets = np.arange(0, matrix.size, matrix.shape[1])[:, None]
    return np.take(matrix, index + offsets)


def _selection(
    row: int,
    start: int,
    stop: int,
    prefix_sizes: np.ndarray,
    prefix_values: np.ndarray,
    next_kept: np.ndarray,
    previous_kept: np.ndarray,
    total: float,
) -> RangeSelection:
    """The selection of prefix range ``[start, stop)`` snapped onto kept buckets.

    Zero buckets contribute nothing to the prefix sums, so moving the start
    forward to the next non-empty bucket and the end back to the previous
    one changes no accumulated quantity — it only canonicalizes the reported
    indices to the compacted-row answer.
    """
    return RangeSelection(
        start=int(next_kept[row, start]),
        end=int(previous_kept[row, stop - 1]),
        support_count=float(prefix_sizes[row, stop] - prefix_sizes[row, start]),
        objective_value=float(prefix_values[row, stop] - prefix_values[row, start]),
        total_count=float(total),
    )


def _last_ample_starts(prefix_sizes: np.ndarray, min_counts: np.ndarray) -> np.ndarray:
    """Per prefix end ``k``: the last start ``s`` whose range ``[s, k)`` is ample.

    Ample means the scalar sweep's exact test ``Pu[k] - Pu[s] >= minsup``
    plus at least one tuple (``Pu[k] - Pu[s] > 0``); ``-1`` marks an end no
    start reaches.  Both tests are monotone in ``s`` (``Pu`` is
    non-decreasing), so one ``searchsorted`` per row on the rounded query
    ``Pu[k] - minsup`` lands on the boundary, and a vectorized fix-up walks
    any position the query's rounding misplaced onto the exact one.
    """
    num_points = prefix_sizes.shape[1]
    last = np.array(
        [
            points.searchsorted(points - minimum, "right")
            if minimum > 0
            else points.searchsorted(points, "left")
            for points, minimum in zip(prefix_sizes, min_counts)
        ]
    ) - 1
    thresholds = min_counts[:, None]

    def ample(starts: np.ndarray) -> np.ndarray:
        spans = prefix_sizes - _gather(
            prefix_sizes, np.clip(starts, 0, num_points - 1)
        )
        inside = (starts >= 0) & (starts < num_points)
        return inside & (spans >= thresholds) & (spans > 0)

    while True:
        grow = ample(last + 1)
        shrink = (last >= 0) & ~ample(last)
        if not (grow.any() or shrink.any()):
            return last
        last += grow
        last -= shrink


def _solve_ratio_block(
    prefix_sizes: np.ndarray, prefix_values: np.ndarray, min_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dinkelbach's parametric sweep over one block of stacked rows.

    Returns per row the winning prefix range ``[start, stop)`` and whether
    the row has any ample range at all.
    """
    num_rows, num_points = prefix_sizes.shape
    last = _last_ample_starts(prefix_sizes, min_counts)
    ends_ok = last >= 0
    feasible = ends_ok[:, -1]  # the whole row is the widest candidate range
    safe_last = np.maximum(last, 0)
    positions = np.arange(num_points)
    rows = np.arange(num_rows)

    # λ = a/b is always the exact ratio of a real ample range.  It starts at
    # the best of the tightest ample range per end — the optimum usually
    # sits at the support floor, so this saves most of the steps.  A range
    # [s, k) beats λ iff b·v − a·u > 0, i.e. H[k] − H[s] > 0 with
    # H = Pv·b − Pu·a — exact products on integer counts — so the best gain
    # per end is H[k] minus the running minimum of H over its ample starts,
    # and the argmax range is the next λ.
    tight_sizes = prefix_sizes - _gather(prefix_sizes, safe_last)
    tight_values = prefix_values - _gather(prefix_values, safe_last)
    ratios = np.full((num_rows, num_points), -np.inf)
    np.divide(tight_values, tight_sizes, out=ratios, where=ends_ok)
    best_stop = np.argmax(ratios, axis=1)
    best_start = safe_last[rows, best_stop]
    a = tight_values[rows, best_stop]
    b = tight_sizes[rows, best_stop]
    active = feasible.copy()
    while np.any(active):
        objective = prefix_values * b[:, None] - prefix_sizes * a[:, None]
        floor = _gather(np.minimum.accumulate(objective, axis=1), safe_last)
        gain = np.where(ends_ok, objective - floor, -np.inf)
        stop = np.argmax(gain, axis=1)
        start = np.argmin(
            np.where(positions <= safe_last[rows, stop][:, None], objective, np.inf),
            axis=1,
        )
        new_a = prefix_values[rows, stop] - prefix_values[rows, start]
        new_b = prefix_sizes[rows, stop] - prefix_sizes[rows, start]
        # The float ratio test only matters outside the exact envelope: a
        # strictly increasing λ from a finite candidate set always halts.
        with np.errstate(divide="ignore", invalid="ignore"):
            active &= (gain[rows, stop] > 0) & (new_a / new_b > a / b)
        best_start[active] = start[active]
        best_stop[active] = stop[active]
        a[active] = new_a[active]
        b[active] = new_b[active]

    # Exact tie-break at the optimal λ: the optimal ranges are exactly those
    # with zero gain.  Per end the widest one starts at the first argmin of
    # H over its ample starts; across ends take the largest tuple count,
    # then the smallest start — the scalar sweep's lexicographic key.
    objective = prefix_values * b[:, None] - prefix_sizes * a[:, None]
    prefix_minimum = np.minimum.accumulate(objective, axis=1)
    new_minimum = np.ones((num_rows, num_points), dtype=bool)
    new_minimum[:, 1:] = objective[:, 1:] < prefix_minimum[:, :-1]
    first_argmin = np.maximum.accumulate(
        np.where(new_minimum, positions, 0), axis=1
    )
    starts = _gather(first_argmin, safe_last)
    tight = ends_ok & (objective == _gather(prefix_minimum, safe_last))
    counts = prefix_sizes - _gather(prefix_sizes, starts)
    tight &= counts == np.where(tight, counts, -np.inf).max(axis=1)[:, None]
    tight &= starts == np.where(tight, starts, num_points).min(axis=1)[:, None]
    exact = tight.any(axis=1)
    stop = np.where(exact, np.argmax(tight, axis=1), best_stop)
    start = np.where(exact, starts[rows, stop], best_start)
    return start, stop, feasible


def fast_maximize_ratio_many(
    sizes: np.ndarray,
    values: np.ndarray,
    min_support_count: float | np.ndarray,
    total: float | np.ndarray | None = None,
) -> list[RangeSelection | None]:
    """Solve :func:`fast_maximize_ratio` for every row of a stacked profile.

    Parameters
    ----------
    sizes / values:
        ``(num_rows, num_buckets)`` matrices; each row is one independent
        profile.  Zero-size buckets are allowed and ignored (see above).
    min_support_count:
        Scalar or per-row minimum tuple count.
    total:
        Scalar or per-row total; defaults to each row's own ``Σ u_i``.

    Returns
    -------
    list[RangeSelection | None]
        One selection per row (``None`` where no range is ample), with
        ``start``/``end`` indexing the *full* row and always pointing at
        non-empty buckets.

    Rows are solved in blocks of ``_SOLVE_BLOCK_POINTS`` prefix points by
    Dinkelbach's parametric method for fractional programming
    (W. Dinkelbach, "On nonlinear fractional programming", *Management
    Science* 13(7), 1967): for the current ratio ``λ`` of a real ample
    range, one O(M) pass per row — prefix sums, a ``searchsorted`` of the
    ample starts on the monotone support prefix, and a running minimum —
    finds the range maximizing ``Σv − λ·Σu``; its ratio is the next ``λ``,
    until no row improves (a handful of steps in practice).  A final exact
    pass applies the scalar solvers' tie-breaking: maximal ratio, then
    maximal tuple count, then the smallest starting index.
    """
    sizes, values = _validate_stacked_arrays(sizes, values)
    num_rows = sizes.shape[0]
    totals = sizes.sum(axis=1) if total is None else _per_row(total, num_rows)
    min_counts = np.maximum(_per_row(min_support_count, num_rows), 0.0)
    next_kept, previous_kept = _kept_neighbors(sizes)

    results: list[RangeSelection | None] = [None] * num_rows
    block_rows = max(1, _SOLVE_BLOCK_POINTS // (sizes.shape[1] + 1))
    for begin in range(0, num_rows, block_rows):
        block = slice(begin, begin + block_rows)
        prefix_sizes = _prefix_sums(sizes[block])
        prefix_values = _prefix_sums(values[block])
        starts, stops, feasible = _solve_ratio_block(
            prefix_sizes, prefix_values, min_counts[block]
        )
        for offset in np.flatnonzero(feasible):
            row = begin + int(offset)
            results[row] = _selection(
                int(offset), int(starts[offset]), int(stops[offset]),
                prefix_sizes, prefix_values,
                next_kept[block], previous_kept[block], totals[row],
            )
    return results


def fast_maximize_support_many(
    sizes: np.ndarray,
    values: np.ndarray,
    min_ratio: float | np.ndarray,
    total: float | np.ndarray | None = None,
) -> list[RangeSelection | None]:
    """Solve :func:`fast_maximize_support` for every row of a stacked profile.

    Same stacked contract as :func:`fast_maximize_ratio_many`: rows are
    independent profiles, zero-size buckets are ignored, and the returned
    ``start``/``end`` index the full row at non-empty buckets.
    ``min_ratio`` is a scalar or a per-row minimum ratio.  The scalar
    solver's cumulative-gain machinery runs as whole-matrix reductions — one
    2-D cumulative sum for the gain table ``F`` and one reversed running
    maximum for the suffix table ``H`` — and each row's ``top(s)`` pointers
    come from one ``searchsorted`` against its reversed ``H``, the scalar
    solver's exact comparison: O(M log M) per row.
    """
    sizes, values = _validate_stacked_arrays(sizes, values)
    num_rows, num_buckets = sizes.shape
    min_ratios = _per_row(min_ratio, num_rows)
    if not np.all(np.isfinite(min_ratios)):
        raise ProfileError(f"min_ratio must be finite, got {min_ratio}")
    totals = sizes.sum(axis=1) if total is None else _per_row(total, num_rows)

    cumulative_gain = _prefix_sums(values - min_ratios[:, None] * sizes)
    prefix_sizes = _prefix_sums(sizes)
    prefix_values = _prefix_sums(values)

    # H[k] = max(F[k..M]); reversed it is non-decreasing, so the largest k
    # with F[k] >= F[s] is M minus the count of reversed entries below F[s].
    reversed_suffix = np.maximum.accumulate(cumulative_gain[:, ::-1], axis=1)
    ends = num_buckets - np.array(
        [
            suffix.searchsorted(gains[:num_buckets], "left")
            for suffix, gains in zip(reversed_suffix, cumulative_gain)
        ]
    )

    starts = np.arange(num_buckets)
    counts = _gather(prefix_sizes, ends) - prefix_sizes[:, :num_buckets]
    # A range must span at least one prefix step *and* contain at least one
    # non-empty bucket (a positive count); ranges made purely of zero buckets
    # are artifacts of the uncompacted representation.
    valid = (ends >= starts[None, :] + 1) & (counts > 0)
    best_count = np.where(valid, counts, -np.inf).max(axis=1)
    # argmax returns the first maximum: ties break towards the smaller start.
    winners = np.argmax(valid & (counts == best_count[:, None]), axis=1)

    next_kept, previous_kept = _kept_neighbors(sizes)
    return [
        _selection(
            row, int(winners[row]), int(ends[row, winners[row]]),
            prefix_sizes, prefix_values, next_kept, previous_kept, totals[row],
        )
        if np.isfinite(best_count[row])
        else None
        for row in range(num_rows)
    ]
