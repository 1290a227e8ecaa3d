"""Relation-level bucket counting.

The experiments of §6.1 bucket a relation on each numeric attribute and, in
the same scan, count for every Boolean attribute how many tuples of each
bucket satisfy it (these are the ``u_i`` / ``v_i`` inputs of the rule
optimizers).  This module provides that combined counting step on top of the
value-level :class:`repro.bucketing.Bucketing` primitives.

Batched counting
----------------
The catalog workload of §1.3 evaluates *many* objective conditions against
the same numeric attribute, so the bucket assignment runs exactly once and
every condition is answered from it by one bit-sliced kernel,
:func:`masked_bucket_counts`.  Following the bit-sliced indexes of O'Neil &
Quass (SIGMOD 1997), the condition masks are packed four at a time into
4-bit codes (``code = Σ_j mask[4g + j] << j``), ``np.bincount`` over the
key ``group·cells·16 + bucket·16 + code`` (one call per cache-sized batch of
groups) histograms every (bucket, code) pair of every group, and a product
with the ``(16, 4)`` bit matrix decodes the histogram into per-condition
counts.  The counts are integers far below
2**53, so the float decode is exact.  :func:`count_many` and
:func:`count_conditions` are thin relation-level wrappers over it.

Parity guarantee: row ``c`` of :func:`masked_bucket_counts` equals
``np.bincount(indices[masks[c]], minlength=num_buckets)``; the oracle tests
in ``tests/bucketing/test_counting.py`` assert exact equality.

Chunk kernel
------------
:func:`count_value_chunk` packages the same primitives as a picklable,
chunk-at-a-time kernel returning :class:`ChunkCounts` partials that merge by
summing — the one-segment case of the fused plan kernel below, which is
what the ``repro.pipeline`` executors run.

Grid kernel
-----------
:func:`count_grid_chunk` is the two-dimensional analogue for the §1.4
rectangle extension: both attributes are assigned in one pass each, the cell
index ``row * C + column`` flattens the ``R × C`` grid, and a single
``bincount`` (plus the bit-sliced kernel for objectives) produces the
per-cell ``u_ij`` / ``v_ij`` counts as :class:`GridChunkCounts` partials —
merged by the same executors that drive the 1-D pipeline.

Fused plan kernel
-----------------
:func:`count_plan_chunk` generalizes both chunk kernels to a whole
:class:`KernelPlan`.  Per chunk it checks the payload's shape once, assigns
every (attribute, bucketing) axis exactly once, packs each distinct set of
condition rows into 4-bit codes once (every segment asking for the same
conditions shares the packing), and answers every ``(segment, condition)``
cell — 1-D buckets and flattened 2-D grids alike — with the bit-sliced
``bincount``\\ s of :func:`masked_bucket_counts`.  All §5 bucket sums go
through one flat weighted ``bincount``.  :func:`count_value_chunk` and
:func:`count_grid_chunk` are one-segment plans over this kernel, which is
what makes fused scans bit-identical to per-request scans by construction.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.bucketing.base import Bucketing
from repro.exceptions import BucketingError
from repro.relation.conditions import Condition
from repro.relation.relation import Relation

__all__ = [
    "BucketCounts",
    "ChunkCounts",
    "GridChunkCounts",
    "PlanChunkCounts",
    "AxisSpec",
    "ValueSegment",
    "GridSegment",
    "KernelPlan",
    "count_relation_buckets",
    "count_conditions",
    "count_many",
    "count_value_chunk",
    "count_grid_chunk",
    "count_plan_chunk",
    "masked_bucket_counts",
    "plan_state_checksum",
]

#: Default upper bound on the elements of the temporaries one batch of the
#: counting kernels builds — the key matrix plus its histogram (~64 MB of
#: int64 at 8e6 entries, half that for int32 keys).  Tunable per call via
#: the ``chunk_elements`` keyword or process-wide via the
#: ``REPRO_MASK_MATRIX_CHUNK_ELEMENTS`` environment variable.
_MASK_MATRIX_CHUNK_ELEMENTS = 8_000_000

#: Condition rows packed into one code of the bit-sliced kernel.  Four bits
#: give 16 histogram slots per cell: wider codes grow the histogram
#: exponentially, narrower ones multiply the bincount passes.
_NIBBLE_BITS = 4
_NIBBLE_CODES = 1 << _NIBBLE_BITS

#: Cap on the key-plus-histogram elements of one bit-sliced ``bincount``
#: (256 KiB of int64).  A batch this small stays resident in a per-core L2
#: cache: on a 2 MiB-L2 Xeon, one 4-row group per ``bincount`` (20k keys,
#: 16k slots at M=1000) counted 2-3x faster than one chunk-wide batch.
_NIBBLE_BATCH_ELEMENTS = 1 << 15

#: ``(16, 4)`` decode matrix: entry ``[code, j]`` is bit ``j`` of ``code``.
_NIBBLE_DECODE = (
    (np.arange(_NIBBLE_CODES)[:, None] >> np.arange(_NIBBLE_BITS)) & 1
).astype(np.float64)


def _mask_matrix_chunk_elements(chunk_elements: int | None = None) -> int:
    """Resolve the mask-matrix temporary budget (keyword > env > default)."""
    if chunk_elements is None:
        raw = os.environ.get("REPRO_MASK_MATRIX_CHUNK_ELEMENTS", "")
        try:
            chunk_elements = int(raw) if raw else _MASK_MATRIX_CHUNK_ELEMENTS
        except ValueError:
            raise BucketingError(
                f"REPRO_MASK_MATRIX_CHUNK_ELEMENTS must be an integer, got {raw!r}"
            ) from None
    if chunk_elements <= 0:
        raise BucketingError("mask-matrix chunk elements budget must be positive")
    return int(chunk_elements)


def _offset_dtype(total_cells: int) -> type:
    """Smallest index dtype for keys spanning ``total_cells`` histogram slots."""
    return np.int32 if total_cells <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True)
class BucketCounts:
    """Counts of a relation over one numeric attribute's bucketing.

    Attributes
    ----------
    attribute:
        The numeric attribute that was bucketed.
    bucketing:
        The bucketing used for assignment.
    sizes:
        Per-bucket tuple counts ``u_i``.
    conditional:
        For every counted objective (keyed by label), the per-bucket counts
        ``v_i`` of tuples that also satisfy the objective.
    data_low / data_high:
        Observed minimum / maximum attribute value per bucket (``x_i`` and
        ``y_i``), ``nan`` for empty buckets.
    """

    attribute: str
    bucketing: Bucketing
    sizes: np.ndarray
    conditional: Mapping[str, np.ndarray]
    data_low: np.ndarray
    data_high: np.ndarray

    @property
    def num_buckets(self) -> int:
        """Number of buckets counted."""
        return self.bucketing.num_buckets

    @property
    def total(self) -> int:
        """Total number of tuples counted."""
        return int(self.sizes.sum())

    def evenness(self) -> float:
        """Max bucket size divided by the ideal ``N/M`` size.

        A value of 1.0 means perfectly equi-depth buckets; the sampling
        bucketizer targets values close to 1 with high probability.
        """
        if self.total == 0 or self.num_buckets == 0:
            return 0.0
        ideal = self.total / self.num_buckets
        return float(self.sizes.max() / ideal)


def _pack_nibbles(masks: np.ndarray) -> np.ndarray:
    """Pack Boolean mask rows into 4-bit codes, four rows per group.

    Returns a ``(ceil(rows / 4), num_tuples)`` uint8 matrix with
    ``code[g, n] = Σ_j masks[4g + j, n] << j``; the last group is zero-padded.
    """
    rows, num_tuples = masks.shape
    codes = np.zeros((-(-rows // _NIBBLE_BITS), num_tuples), dtype=np.uint8)
    bits = masks.view(np.uint8)
    for bit in range(_NIBBLE_BITS):
        plane = bits[bit::_NIBBLE_BITS]
        codes[: plane.shape[0]] |= plane << bit
    return codes


def _nibble_counts(
    indices: np.ndarray, codes: np.ndarray, rows: int, cells: int, budget: int
) -> np.ndarray:
    """Decode per-row cell counts from packed codes (see :func:`masked_bucket_counts`)."""
    groups, num_tuples = codes.shape
    counts = np.empty((groups * _NIBBLE_BITS, cells), dtype=np.int64)
    span = cells * _NIBBLE_CODES
    batch_elements = min(budget, _NIBBLE_BATCH_ELEMENTS)
    batch = max(1, min(groups, batch_elements // max(1, num_tuples + span)))
    dtype = _offset_dtype(batch * span)
    offsets = (np.arange(batch, dtype=dtype) * dtype(span))[:, None]
    keys_base = indices.astype(dtype) * dtype(_NIBBLE_CODES)
    for begin in range(0, groups, batch):
        stop = min(begin + batch, groups)
        width = stop - begin
        keys = offsets[:width] + keys_base
        keys += codes[begin:stop]
        histogram = np.bincount(keys.ravel(), minlength=width * span)
        decoded = histogram.reshape(width * cells, _NIBBLE_CODES) @ _NIBBLE_DECODE
        counts[begin * _NIBBLE_BITS : stop * _NIBBLE_BITS] = (
            decoded.reshape(width, cells, _NIBBLE_BITS)
            .transpose(0, 2, 1)
            .reshape(width * _NIBBLE_BITS, cells)
        )
    return counts[:rows]


def masked_bucket_counts(
    indices: np.ndarray,
    masks: np.ndarray,
    num_buckets: int,
    chunk_elements: int | None = None,
) -> np.ndarray:
    """Per-bucket counts for several Boolean masks over pre-assigned indices.

    Parameters
    ----------
    indices:
        Bucket (or flattened grid-cell) index of every tuple — one
        assignment pass, shared by all masks.
    masks:
        Boolean matrix of shape ``(num_masks, num_tuples)``.
    num_buckets:
        Number of cells ``M`` the indices range over.
    chunk_elements:
        Upper bound on the elements of one batch's key matrix plus histogram
        (default: the ``REPRO_MASK_MATRIX_CHUNK_ELEMENTS`` environment
        variable, falling back to 8e6).

    Returns
    -------
    np.ndarray
        Int64 matrix of shape ``(num_masks, num_buckets)`` where row ``c``
        equals ``np.bincount(indices[masks[c]], minlength=num_buckets)``.

    This is a bit-sliced index over the masks (O'Neil & Quass, "Improved
    Query Performance with Variant Indexes", SIGMOD 1997): rows are packed
    four at a time into 4-bit codes, and each batch of groups is counted by a
    *single* ``np.bincount`` over the key ``group·M·16 + index·16 + code``.
    The ``(group, cell, code)`` histogram times the ``(16, 4)`` bit matrix
    gives every row's counts; each count is at most ``num_tuples``, far below
    2**53, so the float64 product is exact.  Groups are batched so the key
    matrix plus histogram stay within ``chunk_elements`` and within a
    cache-sized cap (``_NIBBLE_BATCH_ELEMENTS``), and keys are ``int32``
    whenever a batch's histogram fits.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2:
        raise BucketingError("masks must form a (num_masks, num_tuples) matrix")
    num_masks, num_tuples = masks.shape
    if indices.shape != (num_tuples,):
        raise BucketingError(
            f"indices shape {indices.shape} does not match masks row length {num_tuples}"
        )
    if num_masks == 0:
        return np.empty((0, num_buckets), dtype=np.int64)
    budget = _mask_matrix_chunk_elements(chunk_elements)
    return _nibble_counts(
        indices, _pack_nibbles(masks), num_masks, num_buckets, budget
    )


@dataclass
class ChunkCounts:
    """Partial bucket counts of one value chunk (or one PE's partition).

    This is the unit of work of the shared counting kernel
    :func:`count_value_chunk`: everything Algorithm 3.1 step 4 needs from a
    scan — per-bucket tuple counts, per-mask conditional counts, per-weight
    bucket sums, and observed data bounds — for one slice of the data.
    Partials merge by element-wise summing (and min/max for the bounds),
    which is exactly the no-communication merge of Algorithm 3.2; the
    pipeline executors (serial, streaming, multiprocessing) differ only in
    *where* the partials are produced, never in what they contain.

    Attributes
    ----------
    sizes:
        Per-bucket tuple counts ``u_i`` of the chunk, shape ``(M,)``.
    conditional:
        Per-mask conditional counts, shape ``(num_masks, M)``.
    sums:
        Per-weight-row bucket sums (the §5 average numerators), shape
        ``(num_weights, M)``.
    lows / highs:
        Observed per-bucket minimum / maximum values, ``nan`` where the
        chunk put nothing in a bucket.
    mask_lows / mask_highs:
        Observed per-bucket bounds of the values selected by each *bound
        mask* (shape ``(num_bound_masks, M)``) — the restricted data bounds
        a §4.3 presumptive profile reports its value range from.
    num_tuples:
        Number of values counted in this chunk.
    """

    sizes: np.ndarray
    conditional: np.ndarray
    sums: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    num_tuples: int = 0
    mask_lows: np.ndarray | None = None
    mask_highs: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.mask_lows is None:
            self.mask_lows = np.zeros((0, self.sizes.shape[0]))
        if self.mask_highs is None:
            self.mask_highs = np.zeros((0, self.sizes.shape[0]))

    @staticmethod
    def zeros(
        num_buckets: int,
        num_masks: int = 0,
        num_weights: int = 0,
        num_bound_masks: int = 0,
    ) -> "ChunkCounts":
        """An identity element for :meth:`merge`."""
        return ChunkCounts(
            sizes=np.zeros(num_buckets, dtype=np.int64),
            conditional=np.zeros((num_masks, num_buckets), dtype=np.int64),
            sums=np.zeros((num_weights, num_buckets), dtype=np.float64),
            lows=np.full(num_buckets, np.nan),
            highs=np.full(num_buckets, np.nan),
            num_tuples=0,
            mask_lows=np.full((num_bound_masks, num_buckets), np.nan),
            mask_highs=np.full((num_bound_masks, num_buckets), np.nan),
        )

    def to_state(self) -> dict[str, np.ndarray]:
        """Flat array mapping capturing this partial exactly (``npz``-ready).

        Together with :meth:`from_state` this is the persistence contract of
        the profile store: every field round-trips bit for bit (dtypes
        included), so a deserialized partial merges and instantiates
        profiles exactly like the original.
        """
        assert self.mask_lows is not None and self.mask_highs is not None
        return {
            "sizes": self.sizes,
            "conditional": self.conditional,
            "sums": self.sums,
            "lows": self.lows,
            "highs": self.highs,
            "mask_lows": self.mask_lows,
            "mask_highs": self.mask_highs,
            "num_tuples": np.int64(self.num_tuples),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, np.ndarray]) -> "ChunkCounts":
        """Rebuild a partial from :meth:`to_state` arrays (fresh copies)."""
        try:
            return cls(
                sizes=np.array(state["sizes"], dtype=np.int64),
                conditional=np.array(state["conditional"], dtype=np.int64),
                sums=np.array(state["sums"], dtype=np.float64),
                lows=np.array(state["lows"], dtype=np.float64),
                highs=np.array(state["highs"], dtype=np.float64),
                mask_lows=np.array(state["mask_lows"], dtype=np.float64),
                mask_highs=np.array(state["mask_highs"], dtype=np.float64),
                num_tuples=int(state["num_tuples"]),
            )
        except KeyError as exc:
            raise BucketingError(
                f"chunk-counts state is missing field {exc.args[0]!r}"
            ) from exc

    def merge(self, other: "ChunkCounts") -> "ChunkCounts":
        """Accumulate another partial into this one (in place; returns self).

        Counts add exactly (int64); bucket sums add in merge order, so any
        executor that merges partials in chunk order reproduces the serial
        float result bit for bit; bounds combine with nan-aware min/max.
        """
        if (
            self.sizes.shape != other.sizes.shape
            or self.conditional.shape != other.conditional.shape
            or self.sums.shape != other.sums.shape
            or self.mask_lows.shape != other.mask_lows.shape
        ):
            raise BucketingError("cannot merge chunk counts of different shapes")
        self.sizes += other.sizes
        self.conditional += other.conditional
        self.sums += other.sums
        self.lows = np.fmin(self.lows, other.lows)
        self.highs = np.fmax(self.highs, other.highs)
        self.mask_lows = np.fmin(self.mask_lows, other.mask_lows)
        self.mask_highs = np.fmax(self.mask_highs, other.mask_highs)
        self.num_tuples += other.num_tuples
        return self


def count_value_chunk(
    values: np.ndarray,
    cuts: np.ndarray,
    masks: np.ndarray | None = None,
    weights: np.ndarray | None = None,
    with_bounds: bool = True,
    bound_masks: np.ndarray | None = None,
) -> ChunkCounts:
    """The shared counting kernel: bucket one value chunk against ``cuts``.

    One ``searchsorted`` assignment pass over the chunk feeds every output:
    ``sizes`` from a plain ``bincount``, all ``masks`` rows from the
    bit-sliced kernel :func:`masked_bucket_counts`, all ``weights`` rows
    from weighted bincounts, and the data bounds from one sort.  It is the
    one-segment case of :func:`count_plan_chunk`, so its partials equal
    what the pipeline's plan fold counts for the same chunk.

    ``with_bounds=False`` skips the sort behind the per-bucket data bounds
    (``lows``/``highs`` stay ``nan``) for callers that only need counts —
    the bounds sort would otherwise dominate a bare counting scan.

    ``bound_masks`` (a ``(num_bound_masks, num_tuples)`` Boolean matrix)
    additionally produces per-bucket data bounds *restricted* to the tuples
    each mask selects — what a §4.3 presumptive profile instantiates its
    value range from.  One sort per bound mask, so callers should reserve it
    for the conjuncts that actually need restricted bounds.
    """
    array = np.asarray(values, dtype=np.float64).ravel()

    if masks is None:
        mask_matrix = np.zeros((0, array.shape[0]), dtype=bool)
    else:
        mask_matrix = np.asarray(masks, dtype=bool)
        if mask_matrix.ndim != 2 or mask_matrix.shape[1] != array.shape[0]:
            raise BucketingError("masks must form a (num_masks, num_tuples) matrix")
    num_masks = mask_matrix.shape[0]
    if bound_masks is not None:
        bound_matrix = np.asarray(bound_masks, dtype=bool)
        if bound_matrix.ndim != 2 or bound_matrix.shape[1] != array.shape[0]:
            raise BucketingError(
                "bound_masks must form a (num_bound_masks, num_tuples) matrix"
            )
        mask_matrix = np.vstack([mask_matrix, bound_matrix])
        bound_slots = tuple(range(num_masks, mask_matrix.shape[0]))
    else:
        bound_slots = ()
    plan = KernelPlan(
        axes=(AxisSpec(column=0, cuts=np.asarray(cuts), with_bounds=with_bounds),),
        segments=(
            ValueSegment(
                axis=0,
                mask_slots=tuple(range(num_masks)),
                weight_slots=tuple(range(0 if weights is None else len(weights))),
                bound_mask_slots=bound_slots,
                with_bounds=with_bounds,
            ),
        ),
    )
    part = count_plan_chunk(plan, ((array,), mask_matrix, weights)).parts[0]
    assert isinstance(part, ChunkCounts)
    return part


@dataclass
class GridChunkCounts:
    """Partial 2-D grid counts of one chunk (the §1.4 rectangle inputs).

    The two-dimensional analogue of :class:`ChunkCounts`: per-cell tuple
    counts ``u_ij`` over an ``R × C`` bucket grid, per-mask conditional cell
    counts ``v_ij``, and the per-axis observed data bounds.  Partials merge
    by element-wise summing (min/max for the bounds), so the grid builds
    under exactly the same serial / streaming / multiprocessing executors as
    the one-dimensional profiles — with bit-identical results, since cell
    counts are integers and bounds are order-free reductions.

    Attributes
    ----------
    sizes:
        Per-cell tuple counts, shape ``(R, C)``.
    conditional:
        Per-mask conditional cell counts, shape ``(num_masks, R, C)``.
    row_lows / row_highs:
        Observed per-row-bucket bounds of the row attribute, shape ``(R,)``.
    column_lows / column_highs:
        Observed per-column-bucket bounds of the column attribute, ``(C,)``.
    num_tuples:
        Number of tuples counted in this chunk.
    """

    sizes: np.ndarray
    conditional: np.ndarray
    row_lows: np.ndarray
    row_highs: np.ndarray
    column_lows: np.ndarray
    column_highs: np.ndarray
    num_tuples: int = 0

    @staticmethod
    def zeros(rows: int, columns: int, num_masks: int = 0) -> "GridChunkCounts":
        """An identity element for :meth:`merge`."""
        return GridChunkCounts(
            sizes=np.zeros((rows, columns), dtype=np.int64),
            conditional=np.zeros((num_masks, rows, columns), dtype=np.int64),
            row_lows=np.full(rows, np.nan),
            row_highs=np.full(rows, np.nan),
            column_lows=np.full(columns, np.nan),
            column_highs=np.full(columns, np.nan),
            num_tuples=0,
        )

    def to_state(self) -> dict[str, np.ndarray]:
        """Flat array mapping capturing this partial exactly (``npz``-ready)."""
        return {
            "sizes": self.sizes,
            "conditional": self.conditional,
            "row_lows": self.row_lows,
            "row_highs": self.row_highs,
            "column_lows": self.column_lows,
            "column_highs": self.column_highs,
            "num_tuples": np.int64(self.num_tuples),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, np.ndarray]) -> "GridChunkCounts":
        """Rebuild a partial from :meth:`to_state` arrays (fresh copies)."""
        try:
            return cls(
                sizes=np.array(state["sizes"], dtype=np.int64),
                conditional=np.array(state["conditional"], dtype=np.int64),
                row_lows=np.array(state["row_lows"], dtype=np.float64),
                row_highs=np.array(state["row_highs"], dtype=np.float64),
                column_lows=np.array(state["column_lows"], dtype=np.float64),
                column_highs=np.array(state["column_highs"], dtype=np.float64),
                num_tuples=int(state["num_tuples"]),
            )
        except KeyError as exc:
            raise BucketingError(
                f"grid-counts state is missing field {exc.args[0]!r}"
            ) from exc

    def merge(self, other: "GridChunkCounts") -> "GridChunkCounts":
        """Accumulate another partial into this one (in place; returns self)."""
        if (
            self.sizes.shape != other.sizes.shape
            or self.conditional.shape != other.conditional.shape
        ):
            raise BucketingError("cannot merge grid counts of different shapes")
        self.sizes += other.sizes
        self.conditional += other.conditional
        self.row_lows = np.fmin(self.row_lows, other.row_lows)
        self.row_highs = np.fmax(self.row_highs, other.row_highs)
        self.column_lows = np.fmin(self.column_lows, other.column_lows)
        self.column_highs = np.fmax(self.column_highs, other.column_highs)
        self.num_tuples += other.num_tuples
        return self


def count_grid_chunk(
    row_values: np.ndarray,
    column_values: np.ndarray,
    row_cuts: np.ndarray,
    column_cuts: np.ndarray,
    masks: np.ndarray | None = None,
) -> GridChunkCounts:
    """The 2-D counting kernel: bucket one chunk into an ``R × C`` cell grid.

    One ``searchsorted`` assignment pass per axis, then the cell index
    ``row * C + column`` flattens the grid so the per-cell tuple counts come
    from a single ``np.bincount`` — and every objective mask's conditional
    cell counts from the same bit-sliced kernel
    (:func:`masked_bucket_counts`) the 1-D paths use, treating the ``R·C``
    cells as one flat bucket axis.  Module-level and numpy-only in its
    arguments (picklable), so the pipeline's multiprocessing executor runs
    it in worker processes unchanged.
    """
    plan = KernelPlan(
        axes=(
            AxisSpec(column=0, cuts=np.asarray(row_cuts)),
            AxisSpec(column=1, cuts=np.asarray(column_cuts)),
        ),
        segments=(
            GridSegment(
                row_axis=0,
                column_axis=1,
                mask_slots=tuple(range(0 if masks is None else len(masks))),
            ),
        ),
    )
    part = count_plan_chunk(plan, ((row_values, column_values), masks, None)).parts[0]
    assert isinstance(part, GridChunkCounts)
    return part


# -- fused scan-plan kernel -----------------------------------------------------


@dataclass(frozen=True)
class AxisSpec:
    """One bucketed axis of a :class:`KernelPlan`.

    ``column`` names the slot of the chunk payload's column list holding the
    axis values; however many segments reference the axis, its values are
    assigned to buckets (and its data bounds sorted) exactly once per chunk.
    """

    column: int
    cuts: np.ndarray
    with_bounds: bool = True


@dataclass(frozen=True)
class ValueSegment:
    """A 1-D counting request of a :class:`KernelPlan`.

    ``mask_slots`` / ``weight_slots`` / ``bound_mask_slots`` index rows of
    the payload's stacked mask and weight matrices; the segment produces one
    :class:`ChunkCounts` with one conditional row per mask slot, one bucket
    sum per weight slot, and restricted data bounds per bound-mask slot.
    """

    axis: int
    mask_slots: tuple[int, ...] = ()
    weight_slots: tuple[int, ...] = ()
    bound_mask_slots: tuple[int, ...] = ()
    with_bounds: bool = True


@dataclass(frozen=True)
class GridSegment:
    """A 2-D cell-grid counting request of a :class:`KernelPlan` (§1.4)."""

    row_axis: int
    column_axis: int
    mask_slots: tuple[int, ...] = ()


@dataclass(frozen=True)
class KernelPlan:
    """Everything the fused chunk kernel needs to count one chunk.

    The plan is chunk-independent (axis cuts plus segment wiring), so a
    process-pool executor ships it to each worker **once** and then streams
    only the per-chunk payloads.  A payload is the triple
    ``(columns, masks, weights)``: the parsed column arrays the axes index
    into, one stacked Boolean matrix holding every distinct condition row of
    the whole plan, and one stacked float matrix of the §5 target weights.
    """

    axes: tuple[AxisSpec, ...]
    segments: tuple[ValueSegment | GridSegment, ...]

    def zeros(self) -> "PlanChunkCounts":
        """An identity element for :meth:`PlanChunkCounts.merge`."""
        cells = [Bucketing(axis.cuts).num_buckets for axis in self.axes]
        parts: list[ChunkCounts | GridChunkCounts] = []
        for segment in self.segments:
            if isinstance(segment, GridSegment):
                parts.append(
                    GridChunkCounts.zeros(
                        cells[segment.row_axis],
                        cells[segment.column_axis],
                        num_masks=len(segment.mask_slots),
                    )
                )
            else:
                parts.append(
                    ChunkCounts.zeros(
                        cells[segment.axis],
                        num_masks=len(segment.mask_slots),
                        num_weights=len(segment.weight_slots),
                        num_bound_masks=len(segment.bound_mask_slots),
                    )
                )
        return PlanChunkCounts(parts)


def plan_state_checksum(state: Mapping[str, np.ndarray]) -> str:
    """Content digest of a :meth:`PlanChunkCounts.to_state` mapping.

    Covers exactly the plan-counts namespace — ``num_parts`` plus every
    ``part{i}.*`` entry — hashing each array's name, dtype, shape, and raw
    bytes in sorted key order, so any caller (shard workers, the profile
    store, checkpoint files) computes the same digest for the same counts.
    Keys outside the namespace (``meta.*`` headers, bucketing cuts, the
    ``checksum`` entry itself) are deliberately excluded: they are validated
    by their own mechanisms and may be added after the partial is sealed.
    """
    digest = hashlib.sha256()
    for key in sorted(state):
        if key != "num_parts" and not key.startswith("part"):
            continue
        array = np.ascontiguousarray(np.asarray(state[key]))
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(repr(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


@dataclass
class PlanChunkCounts:
    """Partial counts of one chunk for every segment of a :class:`KernelPlan`.

    This is the unit a plan-executing worker returns: one
    :class:`ChunkCounts` or :class:`GridChunkCounts` per plan segment,
    merged part-wise in chunk order exactly like the single-request
    partials.
    """

    parts: list[ChunkCounts | GridChunkCounts] = field(default_factory=list)

    def merge(self, other: "PlanChunkCounts") -> "PlanChunkCounts":
        """Accumulate another plan partial into this one (in place)."""
        if len(self.parts) != len(other.parts):
            raise BucketingError("cannot merge plan counts of different shapes")
        for mine, theirs in zip(self.parts, other.parts):
            mine.merge(theirs)
        return self

    def to_state(self) -> dict[str, np.ndarray]:
        """One flat array mapping for the whole plan (``np.savez``-ready).

        Part ``i``'s fields are prefixed ``part{i}.`` and tagged with a
        ``part{i}.kind`` marker (``"value"`` or ``"grid"``), so the mapping
        round-trips through an ``.npz`` archive with nothing but arrays —
        the on-disk payload format of :class:`~repro.store.ProfileStore`.

        The mapping also carries a ``checksum`` digest over every count
        array (see :func:`plan_state_checksum`); :meth:`from_state` verifies
        it when present, so a partial that crossed a process boundary, a
        disk, or a network cannot be folded after a bit flip or truncation.
        """
        state: dict[str, np.ndarray] = {"num_parts": np.int64(len(self.parts))}
        for index, part in enumerate(self.parts):
            kind = "grid" if isinstance(part, GridChunkCounts) else "value"
            state[f"part{index}.kind"] = np.asarray(kind)
            for field_name, array in part.to_state().items():
                state[f"part{index}.{field_name}"] = array
        state["checksum"] = np.asarray(plan_state_checksum(state))
        return state

    @classmethod
    def from_state(cls, state: Mapping[str, np.ndarray]) -> "PlanChunkCounts":
        """Rebuild every part from :meth:`to_state` arrays (fresh copies).

        A ``checksum`` entry, when present, is verified against the count
        arrays before anything is deserialized; payloads written before the
        checksum existed simply skip the check.
        """
        if "checksum" in state:
            expected = str(np.asarray(state["checksum"]).item())
            if plan_state_checksum(state) != expected:
                raise BucketingError(
                    "plan-counts state failed its checksum; the partial was "
                    "corrupted in transit or on disk"
                )
        if "num_parts" not in state:
            raise BucketingError("plan-counts state is missing field 'num_parts'")
        num_parts = int(state["num_parts"])
        parts: list[ChunkCounts | GridChunkCounts] = []
        for index in range(num_parts):
            prefix = f"part{index}."
            kind_key = prefix + "kind"
            if kind_key not in state:
                raise BucketingError(
                    f"plan-counts state is missing field {kind_key!r}"
                )
            kind = str(np.asarray(state[kind_key]).item())
            fields = {
                key[len(prefix):]: value
                for key, value in state.items()
                if key.startswith(prefix)
            }
            if kind == "grid":
                parts.append(GridChunkCounts.from_state(fields))
            elif kind == "value":
                parts.append(ChunkCounts.from_state(fields))
            else:
                raise BucketingError(
                    f"plan-counts state part {index} has unknown kind {kind!r}"
                )
        return cls(parts)


def _fused_weighted_sums(
    entries: Sequence[tuple[np.ndarray, np.ndarray, int]],
    chunk_elements: int | None = None,
) -> list[np.ndarray]:
    """Offset-encoded flat *weighted* bincounts (the §5 bucket sums).

    Each entry is ``(indices, weights, cells)``.  Windows never interleave
    tuples of different entries, so the per-bucket float accumulation order
    of every entry is exactly that of its standalone weighted ``bincount`` —
    which is what keeps fused §5 sums bit-identical to the single-request
    kernel.
    """
    results: list[np.ndarray] = [None] * len(entries)  # type: ignore[list-item]
    if not entries:
        return results
    budget = _mask_matrix_chunk_elements(chunk_elements)
    batch: list[tuple[int, np.ndarray, np.ndarray, int]] = []
    batch_elements = 0

    def flush() -> None:
        nonlocal batch, batch_elements
        if not batch:
            return
        if len(batch) == 1:
            position, indices, weights, cells = batch[0]
            results[position] = np.bincount(
                indices, weights=weights, minlength=cells
            ).astype(np.float64)
        else:
            total = sum(cells for _, _, _, cells in batch)
            dtype = _offset_dtype(total)
            offset = 0
            flat_parts = []
            weight_parts = []
            for _, indices, weights, cells in batch:
                flat_parts.append(indices.astype(dtype, copy=False) + dtype(offset))
                weight_parts.append(weights)
                offset += cells
            sums = np.bincount(
                np.concatenate(flat_parts),
                weights=np.concatenate(weight_parts),
                minlength=total,
            )
            offset = 0
            for position, _, _, cells in batch:
                results[position] = sums[offset : offset + cells].astype(np.float64)
                offset += cells
        batch = []
        batch_elements = 0

    for position, (indices, weights, cells) in enumerate(entries):
        if batch and batch_elements + indices.size + cells > budget:
            flush()
        batch.append((position, indices, weights, cells))
        batch_elements += indices.size + cells
    flush()
    return results


def _check_rows(
    name: str,
    matrix: np.ndarray | None,
    dtype: type,
    slots: set[int],
    num_tuples: int,
) -> np.ndarray | None:
    """Validate one stacked payload matrix against the slots a plan reads."""
    if matrix is None:
        if slots:
            raise BucketingError(
                f"the plan reads {name} slots {sorted(slots)} but the payload "
                f"has no {name} matrix"
            )
        return None
    matrix = np.asarray(matrix, dtype=dtype)
    if matrix.ndim != 2 or matrix.shape[1] != num_tuples:
        raise BucketingError(
            f"{name} matrix of shape {matrix.shape} does not hold one row of "
            f"{num_tuples} entries per {name}"
        )
    if slots and (min(slots) < 0 or max(slots) >= matrix.shape[0]):
        raise BucketingError(
            f"the plan reads {name} slots {sorted(slots)} but the payload "
            f"has {matrix.shape[0]} {name} rows"
        )
    return matrix


def _check_payload(
    plan: KernelPlan,
    columns: Sequence[np.ndarray],
    masks: np.ndarray | None,
    weights: np.ndarray | None,
) -> tuple[list[np.ndarray], np.ndarray | None, np.ndarray | None]:
    """Validate one chunk payload against ``plan`` before anything is counted.

    Every axis column, mask row and weight row must hold the chunk's
    ``num_tuples`` entries, and every slot a segment reads must exist —
    otherwise numpy would broadcast a length-1 row across the chunk or fail
    with an untyped ``IndexError``.  Returns the float64 axis columns and
    the coerced mask / weight matrices.
    """
    if not plan.axes:
        raise BucketingError("a kernel plan needs at least one axis")
    axis_values: list[np.ndarray] = []
    for axis in plan.axes:
        if not 0 <= axis.column < len(columns):
            raise BucketingError(
                f"axis column slot {axis.column} is not among the payload's "
                f"{len(columns)} columns"
            )
        axis_values.append(np.asarray(columns[axis.column], dtype=np.float64).ravel())
    num_tuples = axis_values[0].shape[0]
    for axis, values in zip(plan.axes, axis_values):
        if values.shape[0] != num_tuples:
            raise BucketingError(
                f"axis column {axis.column} has {values.shape[0]} values; "
                f"the chunk has {num_tuples} tuples"
            )
    mask_slots: set[int] = set()
    weight_slots: set[int] = set()
    for segment in plan.segments:
        mask_slots.update(segment.mask_slots)
        if isinstance(segment, ValueSegment):
            mask_slots.update(segment.bound_mask_slots)
            weight_slots.update(segment.weight_slots)
    return (
        axis_values,
        _check_rows("mask", masks, bool, mask_slots, num_tuples),
        _check_rows("weight", weights, np.float64, weight_slots, num_tuples),
    )


def count_plan_chunk(
    plan: KernelPlan,
    payload: tuple[
        Sequence[np.ndarray], np.ndarray | None, np.ndarray | None
    ],
) -> PlanChunkCounts:
    """The fused counting kernel: one chunk answers every plan segment.

    Per chunk the payload is validated once (:class:`BucketingError` on any
    mis-shaped column, mask or weight row), each axis is assigned to buckets
    exactly **once** (and its data bounds sorted once) however many segments
    share it, each distinct tuple of mask slots is packed into 4-bit codes
    once, and every ``(segment, condition)`` cell — 1-D buckets and
    flattened 2-D grids alike — is answered by the bit-sliced kernel behind
    :func:`masked_bucket_counts`.  Segment sizes are one plain ``bincount``
    each, and all §5 bucket sums go through one flat weighted ``bincount``.
    The single-request kernels :func:`count_value_chunk` and
    :func:`count_grid_chunk` are this function applied to a one-segment
    plan, so fused and per-request scans are bit-identical by construction.
    """
    columns, masks, weights = payload
    axis_values, masks, weights = _check_payload(plan, columns, masks, weights)
    num_tuples = int(axis_values[0].shape[0])
    budget = _mask_matrix_chunk_elements()

    axis_indices: list[np.ndarray] = []
    axis_cells: list[int] = []
    axis_bounds: list[tuple[np.ndarray, np.ndarray] | None] = []
    axis_bucketings: list[Bucketing] = []
    for axis, values in zip(plan.axes, axis_values):
        bucketing = Bucketing(axis.cuts)
        axis_bucketings.append(bucketing)
        axis_indices.append(bucketing.assign(values))
        axis_cells.append(bucketing.num_buckets)
        axis_bounds.append(bucketing.data_bounds(values) if axis.with_bounds else None)

    segment_indices: list[np.ndarray] = []
    segment_cells: list[int] = []
    weight_entries: list[tuple[np.ndarray, np.ndarray, int]] = []
    for segment in plan.segments:
        if isinstance(segment, GridSegment):
            if not (
                plan.axes[segment.row_axis].with_bounds
                and plan.axes[segment.column_axis].with_bounds
            ):
                raise BucketingError(
                    "grid segments need both axes built with with_bounds=True "
                    "(their per-axis data bounds instantiate the rectangle)"
                )
            columns_cells = axis_cells[segment.column_axis]
            segment_indices.append(
                axis_indices[segment.row_axis] * columns_cells
                + axis_indices[segment.column_axis]
            )
            segment_cells.append(axis_cells[segment.row_axis] * columns_cells)
        else:
            segment_indices.append(axis_indices[segment.axis])
            segment_cells.append(axis_cells[segment.axis])
            for slot in segment.weight_slots:
                weight_entries.append(
                    (segment_indices[-1], weights[slot], segment_cells[-1])
                )
    sum_rows = _fused_weighted_sums(weight_entries)

    packed: dict[tuple[int, ...], np.ndarray] = {}
    parts: list[ChunkCounts | GridChunkCounts] = []
    sum_cursor = 0
    for segment, indices, cells in zip(plan.segments, segment_indices, segment_cells):
        sizes = np.bincount(indices, minlength=cells).astype(np.int64, copy=False)
        slots = segment.mask_slots
        if slots:
            if slots not in packed:
                packed[slots] = _pack_nibbles(masks[list(slots)])
            conditional = _nibble_counts(
                indices, packed[slots], len(slots), cells, budget
            )
        else:
            conditional = np.empty((0, cells), dtype=np.int64)
        if isinstance(segment, GridSegment):
            rows_cells = axis_cells[segment.row_axis]
            columns_cells = axis_cells[segment.column_axis]
            row_lows, row_highs = axis_bounds[segment.row_axis]
            column_lows, column_highs = axis_bounds[segment.column_axis]
            parts.append(
                GridChunkCounts(
                    sizes=sizes.reshape(rows_cells, columns_cells),
                    conditional=conditional.reshape(-1, rows_cells, columns_cells),
                    row_lows=row_lows,
                    row_highs=row_highs,
                    column_lows=column_lows,
                    column_highs=column_highs,
                    num_tuples=num_tuples,
                )
            )
            continue
        sums = np.empty((len(segment.weight_slots), cells), dtype=np.float64)
        for row in range(len(segment.weight_slots)):
            sums[row] = sum_rows[sum_cursor + row]
        sum_cursor += len(segment.weight_slots)
        if segment.with_bounds and axis_bounds[segment.axis] is not None:
            lows, highs = axis_bounds[segment.axis]
        else:
            lows = np.full(cells, np.nan)
            highs = np.full(cells, np.nan)
        mask_lows = np.full((len(segment.bound_mask_slots), cells), np.nan)
        mask_highs = np.full((len(segment.bound_mask_slots), cells), np.nan)
        for row, slot in enumerate(segment.bound_mask_slots):
            mask_lows[row], mask_highs[row] = axis_bucketings[
                segment.axis
            ].data_bounds(axis_values[segment.axis][masks[slot]])
        parts.append(
            ChunkCounts(
                sizes=sizes,
                conditional=conditional,
                sums=sums,
                lows=lows,
                highs=highs,
                num_tuples=num_tuples,
                mask_lows=mask_lows,
                mask_highs=mask_highs,
            )
        )
    return PlanChunkCounts(parts)


def count_relation_buckets(
    relation: Relation,
    attribute: str,
    bucketing: Bucketing,
    objectives: Mapping[str, Condition] | None = None,
) -> BucketCounts:
    """Count ``relation``'s tuples per bucket of ``attribute``.

    Parameters
    ----------
    relation:
        The relation to scan.
    attribute:
        Numeric attribute whose values choose the bucket.
    bucketing:
        Bucket boundaries (typically from a bucketizer).
    objectives:
        Optional mapping from a label to an objective condition; for every
        entry the per-bucket conditional counts ``v_i`` are produced.
    """
    return count_many(relation, attribute, bucketing, objectives or {})


def count_many(
    relation: Relation,
    attribute: str,
    bucketing: Bucketing,
    objectives: Mapping[str, Condition],
) -> BucketCounts:
    """Count ``attribute``'s buckets once and every objective from that pass.

    Functionally identical to :func:`count_relation_buckets` but explicit
    about its batched contract: the relation column is assigned to buckets
    exactly once, the data bounds are computed from one sort, and the
    conditional counts of all ``objectives`` come from the bit-sliced
    kernel, so ``k`` conditions cost one scan plus ``ceil(k / 4)`` key rows
    of one bincount instead of ``k`` full scans.
    """
    values = np.asarray(relation.numeric_column(attribute), dtype=np.float64)
    indices = bucketing.assign(values)
    sizes = np.bincount(indices, minlength=bucketing.num_buckets).astype(np.int64)

    conditional: dict[str, np.ndarray] = {}
    labels = list(objectives)
    if labels:
        masks = np.empty((len(labels), values.shape[0]), dtype=bool)
        for row, label in enumerate(labels):
            mask = np.asarray(objectives[label].mask(relation), dtype=bool)
            if mask.shape != values.shape:
                raise BucketingError(
                    "condition mask length does not match relation size"
                )
            masks[row] = mask
        counted = masked_bucket_counts(indices, masks, bucketing.num_buckets)
        for row, label in enumerate(labels):
            conditional[label] = counted[row]

    low, high = bucketing.data_bounds(values)
    return BucketCounts(
        attribute=attribute,
        bucketing=bucketing,
        sizes=sizes,
        conditional=conditional,
        data_low=low,
        data_high=high,
    )


def count_conditions(
    relation: Relation,
    attribute: str,
    bucketing: Bucketing,
    conditions: Sequence[Condition],
) -> list[np.ndarray]:
    """Per-bucket conditional counts for several objective conditions.

    Convenience wrapper used by the all-combinations catalog miner: the
    bucket assignment of the numeric attribute is computed once and every
    condition is counted from it with the bit-sliced kernel.
    """
    values = relation.numeric_column(attribute)
    indices = bucketing.assign(values)
    if not conditions:
        return []
    masks = np.empty((len(conditions), values.shape[0]), dtype=bool)
    for row, condition in enumerate(conditions):
        mask = np.asarray(condition.mask(relation), dtype=bool)
        if mask.shape != values.shape:
            raise BucketingError("condition mask length does not match relation size")
        masks[row] = mask
    counted = masked_bucket_counts(indices, masks, bucketing.num_buckets)
    return [counted[row] for row in range(len(conditions))]
