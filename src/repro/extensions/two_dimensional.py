"""Two-dimensional optimized rectangle rules (§1.4 outlook).

§1.4 sketches the extension to rules whose presumptive condition is a region
in the plane of two numeric attributes, e.g.

    ``(Age, Balance) ∈ X ⇒ (CardLoan = yes)``.

Finding the optimal *arbitrary connected* region is NP-hard; the follow-up
papers study rectangles, x-monotone and rectilinear-convex regions.  This
module implements the rectangular case on a bucket grid:

1. bucket each attribute independently (equi-depth, as in §3) into a grid of
   ``rows × columns`` cells with counts ``u_ij`` / ``v_ij`` — a
   :class:`~repro.pipeline.GridProfile`, built either in-memory or from any
   :class:`~repro.pipeline.DataSource` through
   :class:`~repro.pipeline.GridProfileBuilder` (so rectangles mine
   out-of-core, under any pipeline executor, without materializing the
   relation);
2. collapse pairs of row indices ``(r1, r2)`` into single rows of column
   totals — whole *blocks* of bands at once, via a cumulative sum over the
   grid's rows and one fancy-indexed difference per block (bounded memory,
   no per-band Python lists);
3. solve the best column range of every band in the block with one stacked
   call to the batched fast-path solvers
   (:func:`~repro.core.fastpath.fast_maximize_ratio_many` /
   :func:`~repro.core.fastpath.fast_maximize_support_many`), instead of
   ``R²`` Python-level solver invocations.

The total work is ``O(R² · C)`` as before (the follow-up papers give
asymptotically faster variants), but every step is array-native now.  The
per-band scalar solvers survive as the ``engine="reference"`` oracle: on
integer-count grids — the stacked solvers' exact-product envelope (see
``repro.core.fastpath``) — both engines return bit-identical rectangles, which
``tests/extensions/test_two_dimensional.py`` asserts against a brute-force
enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.bucketing.base import Bucketizer
from repro.bucketing.equidepth_sort import SortingEquiDepthBucketizer
from repro.core.fastpath import fast_maximize_ratio_many, fast_maximize_support_many
from repro.core.optimized_confidence import maximize_ratio
from repro.core.optimized_support import maximize_support
from repro.core.rules import RangeSelection, RuleKind
from repro.exceptions import OptimizationError
from repro.pipeline.grid import GridProfile, GridProfileBuilder
from repro.pipeline.sources import DataSource
from repro.relation.conditions import BooleanIs, Condition, NumericInRange
from repro.relation.relation import Relation

__all__ = [
    "GridProfile",
    "RectangleRule",
    "mine_rectangle_rule",
]

_ENGINES = ("fast", "reference")


@dataclass(frozen=True)
class RectangleRule:
    """An optimized rectangle rule ``(A, B) ∈ [lows..highs] ⇒ C``."""

    row_attribute: str
    column_attribute: str
    objective_label: str
    row_start: int
    row_end: int
    column_start: int
    column_end: int
    row_low: float
    row_high: float
    column_low: float
    column_high: float
    support: float
    confidence: float
    kind: RuleKind

    def region_condition(self) -> Condition:
        """The rectangle as a conjunction of two range conditions."""
        return NumericInRange(self.row_attribute, self.row_low, self.row_high) & NumericInRange(
            self.column_attribute, self.column_low, self.column_high
        )

    def __str__(self) -> str:
        return (
            f"({self.row_attribute} in [{self.row_low:g}, {self.row_high:g}]) and "
            f"({self.column_attribute} in [{self.column_low:g}, {self.column_high:g}]) "
            f"=> {self.objective_label}  "
            f"[support={self.support:.1%}, confidence={self.confidence:.1%}]"
        )


def mine_rectangle_rule(
    data: Relation | DataSource,
    row_attribute: str,
    column_attribute: str,
    objective: Condition | str,
    kind: RuleKind = RuleKind.OPTIMIZED_CONFIDENCE,
    min_support: float = 0.05,
    min_confidence: float = 0.5,
    grid: tuple[int, int] = (30, 30),
    bucketizer: Bucketizer | None = None,
    rng: np.random.Generator | None = None,
    engine: str = "fast",
    executor: str = "serial",
    builder: GridProfileBuilder | None = None,
    store: "object | None" = None,
    kernel_tier: str | None = None,
) -> RectangleRule | None:
    """Best axis-aligned rectangle on a 2-D bucket grid.

    Parameters
    ----------
    data:
        An in-memory :class:`Relation` or any
        :class:`~repro.pipeline.DataSource`.  In-memory data is bucketed
        with ``bucketizer`` (exact equi-depth by default) and counted in one
        kernel call; a source is routed through
        :class:`~repro.pipeline.GridProfileBuilder` — two scans, never
        materialized.
    kind:
        ``OPTIMIZED_CONFIDENCE`` maximizes confidence subject to
        ``support >= min_support``; ``OPTIMIZED_SUPPORT`` maximizes support
        subject to ``confidence >= min_confidence``.
    grid:
        Number of row and column buckets.
    bucketizer / rng:
        Bucketing strategy and boundary randomness for in-memory data
        (``rng`` also seeds the pipeline's reservoir pass for sources).
    engine:
        ``"fast"`` solves whole blocks of row bands with the stacked batched
        solvers (falling back to per-band scalar sweeps on very wide grids);
        ``"reference"`` runs the per-band object-based oracle.  Both return
        identical rectangles on grids within the batched solvers' exactness
        envelope (integer counts, totals below ~1e7 tuples).
    executor / builder:
        Counting executor for sources (``"serial"``, ``"streaming"``,
        ``"multiprocessing"``), or a pre-configured builder overriding it.
    store:
        Optional :class:`~repro.store.ProfileStore` for source-backed
        mining: a matching grid snapshot is served with zero physical
        scans, and an append-only grown source counts only its tail.
        Ignored for in-memory relations (they are counted directly).
    kernel_tier:
        Kernel tier name for source-backed mining (``"auto"`` or
        ``"numpy"``; both select the NumPy kernel).  Ignored when
        ``builder`` is supplied or for in-memory relations.
    """
    if grid[0] <= 0 or grid[1] <= 0:
        raise OptimizationError("grid dimensions must be positive")
    if row_attribute == column_attribute:
        raise OptimizationError(
            "the rectangle's row and column attributes must differ"
        )
    if engine not in _ENGINES:
        raise OptimizationError(
            f"unknown solver engine {engine!r}; use 'fast' or 'reference'"
        )
    if isinstance(objective, str):
        objective = BooleanIs(objective, True)
    if isinstance(data, Relation):
        bucketizer = bucketizer if bucketizer is not None else SortingEquiDepthBucketizer()
        row_bucketing = bucketizer.build(
            data.numeric_column(row_attribute), grid[0], rng=rng
        )
        column_bucketing = bucketizer.build(
            data.numeric_column(column_attribute), grid[1], rng=rng
        )
        profile = GridProfile.from_relation(
            data, row_attribute, column_attribute, objective,
            row_bucketing, column_bucketing,
        )
    else:
        if builder is None:
            seed = 0 if rng is None else int(rng.integers(0, 2**32))
            # The per-axis ``grid`` override below governs both bucket
            # counts, so the builder-wide default is irrelevant here.
            builder = GridProfileBuilder(
                executor=executor, seed=seed, kernel_tier=kernel_tier
            )
        profile = builder.build_grid_profile(
            data, row_attribute, column_attribute, objective, grid=grid,
            store=store,
        )
    return _best_rectangle(profile, kind, min_support, min_confidence, engine)


# Upper bound on the number of elements of one stacked band-matrix block
# (~32 MB of float64 per matrix at 4e6 entries) — keeps the search's memory
# bounded however large a grid the caller requests, like the pre-refactor
# per-band loop was.
_BAND_BLOCK_ELEMENTS = 4_000_000


def _iter_band_blocks(
    profile: GridProfile,
) -> "Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]":
    """Yield row bands as stacked ``(block_bands, C)`` matrix blocks.

    One cumulative sum over the grid's rows, then one fancy-indexed
    difference per block — no per-band Python loop and no intermediate
    per-band arrays.  Bands are ordered row-major
    (``(0,0), (0,1), …, (1,1), …``), the order the band search scans, and
    each block holds at most ``_BAND_BLOCK_ELEMENTS`` matrix elements so
    even a huge requested grid never materializes all ``R(R+1)/2`` bands at
    once.
    """
    rows, columns = profile.shape
    prefix_sizes = np.concatenate(
        (np.zeros((1, columns)), np.cumsum(profile.sizes, axis=0)), axis=0
    )
    prefix_values = np.concatenate(
        (np.zeros((1, columns)), np.cumsum(profile.values, axis=0)), axis=0
    )
    row_starts, row_ends = np.triu_indices(rows)
    block = max(1, _BAND_BLOCK_ELEMENTS // columns)
    for begin in range(0, row_starts.shape[0], block):
        starts = row_starts[begin : begin + block]
        ends = row_ends[begin : begin + block]
        yield (
            starts,
            ends,
            prefix_sizes[ends + 1] - prefix_sizes[starts],
            prefix_values[ends + 1] - prefix_values[starts],
        )


def _scalar_band_selection(
    band_sizes: np.ndarray,
    band_values: np.ndarray,
    kind: RuleKind,
    min_support: float,
    min_confidence: float,
    total: float,
) -> RangeSelection | None:
    """Per-band oracle: compact one band and run the scalar solvers on it.

    The winning compact indices are mapped back to full-grid column indices,
    so both engines report selections in the same coordinate system.
    """
    keep = band_sizes > 0
    if not np.any(keep):
        return None
    kept_columns = np.flatnonzero(keep)
    sizes = band_sizes[keep]
    values = band_values[keep]
    if kind is RuleKind.OPTIMIZED_CONFIDENCE:
        selection = maximize_ratio(
            sizes, values, min_support * total, total=total, engine="reference"
        )
    else:
        selection = maximize_support(
            sizes, values, min_confidence, total=total, engine="reference"
        )
    if selection is None:
        return None
    return RangeSelection(
        start=int(kept_columns[selection.start]),
        end=int(kept_columns[selection.end]),
        support_count=selection.support_count,
        objective_value=selection.objective_value,
        total_count=selection.total_count,
    )


def _best_rectangle(
    profile: GridProfile,
    kind: RuleKind,
    min_support: float,
    min_confidence: float,
    engine: str = "fast",
) -> RectangleRule | None:
    """Search every row band and optimize the column range inside it.

    Bands are processed in bounded-memory blocks (``_iter_band_blocks``);
    within each block the fast engine answers every band with one stacked
    batched-solver call, while the reference engine runs the per-band
    object-based oracle.  Blocks arrive in band order and ties keep the
    earliest band, so the block size never affects the result.
    """
    if kind not in (RuleKind.OPTIMIZED_CONFIDENCE, RuleKind.OPTIMIZED_SUPPORT):
        raise OptimizationError(
            f"rectangle mining supports confidence/support rules, got {kind}"
        )

    best: RectangleRule | None = None
    best_key: tuple[float, float] | None = None
    for row_starts, row_ends, band_sizes, band_values in _iter_band_blocks(profile):
        if engine == "fast":
            # The whole block solved in one stacked call; zero-size cells
            # are ignored by the batched solvers exactly as the per-band
            # compaction ignores them, and the returned indices already
            # address the full grid.
            if kind is RuleKind.OPTIMIZED_CONFIDENCE:
                selections = fast_maximize_ratio_many(
                    band_sizes,
                    band_values,
                    min_support * profile.total,
                    total=profile.total,
                )
            else:
                selections = fast_maximize_support_many(
                    band_sizes, band_values, min_confidence, total=profile.total
                )
        else:
            selections = [
                _scalar_band_selection(
                    band_sizes[band],
                    band_values[band],
                    kind,
                    min_support,
                    min_confidence,
                    profile.total,
                )
                for band in range(band_sizes.shape[0])
            ]

        for band, selection in enumerate(selections):
            if selection is None:
                continue
            if kind is RuleKind.OPTIMIZED_CONFIDENCE:
                key = (selection.ratio, selection.support)
            else:
                key = (selection.support, selection.ratio)
            if best_key is None or key > best_key:
                best_key = key
                best = RectangleRule(
                    row_attribute=profile.row_attribute,
                    column_attribute=profile.column_attribute,
                    objective_label=profile.objective_label,
                    row_start=int(row_starts[band]),
                    row_end=int(row_ends[band]),
                    column_start=selection.start,
                    column_end=selection.end,
                    row_low=float(profile.row_lows[row_starts[band]]),
                    row_high=float(profile.row_highs[row_ends[band]]),
                    column_low=float(profile.column_lows[selection.start]),
                    column_high=float(profile.column_highs[selection.end]),
                    support=selection.support,
                    confidence=selection.ratio,
                    kind=kind,
                )
    return best
