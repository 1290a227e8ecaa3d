"""Two-dimensional grid profiles through the unified pipeline (§1.4).

The rectangle extension of §1.4 optimizes a region in the plane of two
numeric attributes.  Its solver-ready input is a :class:`GridProfile` — the
2-D analogue of :class:`~repro.core.BucketProfile`: per-cell tuple counts
``u_ij`` and objective counts ``v_ij`` over an ``R × C`` bucket grid, plus
the per-axis observed data bounds that instantiate the winning rectangle.

:class:`GridProfileBuilder` builds grids from any
:class:`~repro.pipeline.sources.DataSource` exactly the way
:class:`~repro.pipeline.builder.ProfileBuilder` builds 1-D profiles:

1. the builder's per-attribute reservoir boundary pass (chunk-invariant,
   seeded per attribute) fixes both axes' bucket boundaries in one scan;
2. the grid compiles into a one-request :class:`~repro.pipeline.ScanPlan`
   whose grid segment the fused chunk kernel counts — one ``searchsorted``
   assignment per axis, one flattened ``bincount`` for the cells — under the
   same serial / streaming / multiprocessing executors.

Cell counts are integers and bounds are order-free min/max reductions, so
every source type and executor (at any pool size) produces **bit-identical**
grids; ``tests/pipeline/test_grid.py`` asserts the full matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.bucketing.base import Bucketing
from repro.bucketing.counting import count_grid_chunk
from repro.exceptions import PipelineError
from repro.pipeline.builder import ProfileBuilder, ScanPlan
from repro.pipeline.sources import DataSource
from repro.relation.conditions import Condition
from repro.relation.relation import Relation

__all__ = ["GridProfile", "GridCounts", "GridProfileBuilder"]


@dataclass(frozen=True)
class GridProfile:
    """Per-cell counts over a 2-D bucket grid.

    ``sizes[i, j]`` is the number of tuples whose row attribute falls in row
    bucket ``i`` and column attribute in column bucket ``j``; ``values`` is
    the analogous count of tuples that also satisfy the objective.
    """

    row_attribute: str
    column_attribute: str
    objective_label: str
    sizes: np.ndarray
    values: np.ndarray
    row_lows: np.ndarray
    row_highs: np.ndarray
    column_lows: np.ndarray
    column_highs: np.ndarray
    total: float

    @staticmethod
    def from_relation(
        relation: Relation,
        row_attribute: str,
        column_attribute: str,
        objective: Condition,
        row_bucketing: Bucketing,
        column_bucketing: Bucketing,
    ) -> "GridProfile":
        """Count an in-memory relation into the grid of two bucketings.

        One call to the shared 2-D kernel — the same counting primitives the
        pipeline executors run chunk by chunk, so a
        :class:`GridProfileBuilder` fed the same bucketings produces a
        bit-identical grid.
        """
        counts = count_grid_chunk(
            relation.numeric_column(row_attribute),
            relation.numeric_column(column_attribute),
            row_bucketing.cuts,
            column_bucketing.cuts,
            masks=np.asarray(objective.mask(relation), dtype=bool)[None, :],
        )
        return GridProfile(
            row_attribute=row_attribute,
            column_attribute=column_attribute,
            objective_label=str(objective),
            sizes=counts.sizes.astype(np.float64),
            values=counts.conditional[0].astype(np.float64),
            row_lows=counts.row_lows,
            row_highs=counts.row_highs,
            column_lows=counts.column_lows,
            column_highs=counts.column_highs,
            total=float(relation.num_tuples),
        )

    @property
    def shape(self) -> tuple[int, int]:
        """Grid shape ``(rows, columns)``."""
        return tuple(self.sizes.shape)  # type: ignore[return-value]


@dataclass
class GridCounts:
    """Pipeline output for one attribute pair: merged cell counts + bucketings.

    The 2-D analogue of :class:`~repro.pipeline.builder.AttributeCounts`:
    everything needed to materialize a :class:`GridProfile` per counted
    objective without another scan.
    """

    row_attribute: str
    column_attribute: str
    row_bucketing: Bucketing
    column_bucketing: Bucketing
    sizes: np.ndarray
    conditional: dict[Condition, np.ndarray]
    row_lows: np.ndarray
    row_highs: np.ndarray
    column_lows: np.ndarray
    column_highs: np.ndarray
    total: int

    def profile(self, objective: Condition, label: str | None = None) -> GridProfile:
        """The grid profile of one counted objective."""
        if objective not in self.conditional:
            raise PipelineError(
                f"objective {objective} was not counted for the grid "
                f"({self.row_attribute!r}, {self.column_attribute!r})"
            )
        if self.total == 0:
            raise PipelineError("the source contained no tuples")
        return GridProfile(
            row_attribute=self.row_attribute,
            column_attribute=self.column_attribute,
            objective_label=label if label is not None else str(objective),
            sizes=self.sizes.astype(np.float64),
            values=self.conditional[objective].astype(np.float64),
            row_lows=self.row_lows,
            row_highs=self.row_highs,
            column_lows=self.column_lows,
            column_highs=self.column_highs,
            total=float(self.total),
        )


class GridProfileBuilder(ProfileBuilder):
    """Build 2-D grid profiles from any data source with a pluggable executor.

    Shares everything with :class:`ProfileBuilder` — constructor parameters,
    the per-attribute reservoir boundary pass, and the executor strategies —
    and adds the grid counting pass.  The boundary sample of each axis
    derives from ``(seed, crc32(attribute))`` exactly as for 1-D profiles,
    so a grid's bucket boundaries are independent of chunking, executor, and
    worker-pool size; the counting partials merge in chunk order, making the
    whole grid bit-identical across the source × executor × pool-size
    matrix.  The tuple → worker partition is the (deterministic) chunk order
    itself, so growing the pool can never change a result
    (``tests/pipeline/test_grid.py`` regresses pool sizes 1/2/4).
    """

    def build_grid_counts(
        self,
        source: DataSource,
        row_attribute: str,
        column_attribute: str,
        objectives: Sequence[Condition],
        bucketings: Mapping[str, Bucketing] | None = None,
        grid: tuple[int, int] | None = None,
        store: "object | None" = None,
    ) -> GridCounts:
        """Count every objective's cell grid in one fused scan of ``source``.

        ``bucketings`` entries (keyed by attribute name) skip the sampling
        pass for their axis, e.g. to reuse boundaries from a previous build
        or from an in-memory bucketizer.  ``grid`` overrides the builder-wide
        bucket count per axis (``(rows, columns)``), so non-square grids need
        no second builder.  ``store`` serves the grid from a persistent
        :class:`~repro.store.ProfileStore` snapshot when one matches — zero
        physical scans, tail-only counting on append-only growth (ignored
        when ``bucketings`` overrides are given).
        """
        if row_attribute == column_attribute:
            raise PipelineError(
                "the grid's row and column attributes must differ"
            )
        plan = ScanPlan()
        request_id = plan.add_grid(
            row_attribute, column_attribute, objectives, grid=grid
        )
        results = self.execute_plan(
            source, plan, bucketings=bucketings,
            store=store if not bucketings else None,
        )
        return results.grid_counts(request_id)

    def build_grid_profile(
        self,
        source: DataSource,
        row_attribute: str,
        column_attribute: str,
        objective: Condition,
        bucketings: Mapping[str, Bucketing] | None = None,
        grid: tuple[int, int] | None = None,
        label: str | None = None,
        store: "object | None" = None,
    ) -> GridProfile:
        """One objective's :class:`GridProfile` from one fused scan (or a store hit)."""
        counts = self.build_grid_counts(
            source,
            row_attribute,
            column_attribute,
            [objective],
            bucketings=bucketings,
            grid=grid,
            store=store,
        )
        return counts.profile(objective, label=label)
