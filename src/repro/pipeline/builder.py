"""The unified profile-construction pipeline (sample → boundaries → count).

Fukuda et al. design the bucketed formulation so that mining cost is
dominated by **one scan of the relation** plus cheap work on the M-bucket
profiles.  This module realizes that contract literally: a
:class:`ScanPlan` collects *every* profile request a workload needs —
plain bucket counts, §5 average targets, §4.3 presumptive-conjunct groups,
§1.4 2-D grids — and :meth:`ProfileBuilder.execute_plan` answers all of
them from a single physical scan of any
:class:`~repro.pipeline.sources.DataSource`:

1. **boundary sampling** — chunk-invariant
   :class:`~repro.bucketing.streaming.ReservoirSampler`\\ s (one per
   distinct ``(attribute, bucket count)`` pair, each seeded from
   ``(seed, crc32(attribute))``) fix the almost-equi-depth boundaries
   (steps 1–3 of Algorithm 3.1).  While this pass scans, the counting
   payloads — parsed columns, evaluated condition masks, target weights —
   are cached up to ``cache_budget_mb``, so counting normally needs no
   second pass over the source;
2. **fused counting fold** — every chunk (cached or re-scanned) runs
   through :func:`~repro.bucketing.counting.count_plan_chunk`: each axis
   assigned to buckets once per chunk, every ``(segment × condition)``
   cell answered by the bit-sliced ``bincount`` kernel, partials merged
   in chunk order.

Per-request entry points (``build_profile``, ``build_profiles``,
``build_average_profile``, ``build_presumptive_profiles``,
``build_counts``, ``build_many``) compile to one-request plans, so every
counting pass in the library runs through the same plan fold.

*Where* the kernel runs is an executor strategy:

* ``"serial"`` — every chunk counted in-process, each partial merged the
  moment its chunk is counted (one-PE Algorithm 3.2; only one chunk is ever
  resident);
* ``"streaming"`` — an alias of the same bounded-memory in-process loop,
  named for the out-of-core deployment it serves;
* ``"multiprocessing"`` — the compiled plan ships to each
  ``ProcessPoolExecutor`` worker once, chunk payloads stream out in
  consecutive batches, and each worker returns one merged
  :class:`~repro.bucketing.counting.PlanChunkCounts` per batch (Algorithm
  3.2 with real PEs); batches still merge in chunk order.

Counts are integers and partials always merge in chunk order, so all three
executors — and all source types over the same tuples — produce **bit
identical** :class:`~repro.core.BucketProfile`\\ s, equal bit for bit to
the in-memory oracles (:meth:`BucketProfile.from_relation` and friends);
the parity suites in ``tests/pipeline/test_builder.py`` and
``tests/pipeline/test_plan.py`` assert exact equality across the full
source × executor matrix.
"""

from __future__ import annotations

import os
import zlib
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.bucketing.base import Bucketing
from repro.bucketing.counting import (
    AxisSpec,
    ChunkCounts,
    GridChunkCounts,
    GridSegment,
    KernelPlan,
    PlanChunkCounts,
    ValueSegment,
    count_plan_chunk,
)
from repro.bucketing.equidepth_sample import DEFAULT_SAMPLE_FACTOR
from repro.bucketing.equidepth_sort import equidepth_cuts_from_sorted
from repro.bucketing.streaming import ReservoirSampler
from repro.core.profile import BucketProfile
from repro.exceptions import ExecutorError, PipelineError
from repro.kernels import resolve_kernel_tier
from repro.pipeline.sources import DataSource
from repro.relation.conditions import Condition
from repro.relation.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only (grid builds on builder)
    from repro.pipeline.grid import GridCounts

__all__ = [
    "AttributeSpec",
    "AttributeCounts",
    "CompiledPlan",
    "ProfileBuilder",
    "ProfileRequest",
    "ScanPlan",
    "PlanResults",
    "EXECUTORS",
]

#: Recognized executor strategy names.
EXECUTORS = ("serial", "streaming", "multiprocessing")

#: Chunks per multiprocessing work item of a fused plan fold: workers return
#: one merged :class:`~repro.bucketing.counting.PlanChunkCounts` per batch
#: instead of one partial per (chunk, request), cutting the IPC volume.
_PLAN_BATCH_CHUNKS = 4

#: Default budget (MiB) for caching the counting payloads gathered during the
#: boundary-sampling scan, which is what lets a plan run off one physical
#: source scan.  Overridable per builder or via ``REPRO_PLAN_CACHE_MB``.
_DEFAULT_PLAN_CACHE_MB = 512


@dataclass(frozen=True)
class AttributeSpec:
    """What to count for one numeric attribute during the counting pass.

    Attributes
    ----------
    attribute:
        The numeric attribute whose buckets are counted.
    objectives:
        Objective conditions whose per-bucket conditional counts ``v_i`` are
        produced (confidence/support rules).
    targets:
        Numeric attributes whose per-bucket sums are produced (the §5
        average-operator numerators).
    """

    attribute: str
    objectives: tuple[Condition, ...] = ()
    targets: tuple[str, ...] = ()

    def merged_with(self, other: "AttributeSpec") -> "AttributeSpec":
        """Union of two specs for the same attribute (order-preserving)."""
        if other.attribute != self.attribute:
            raise PipelineError("cannot merge specs of different attributes")
        objectives = list(self.objectives)
        objectives.extend(o for o in other.objectives if o not in objectives)
        targets = list(self.targets)
        targets.extend(t for t in other.targets if t not in targets)
        return AttributeSpec(self.attribute, tuple(objectives), tuple(targets))


@dataclass
class AttributeCounts:
    """Pipeline output for one attribute: merged counts plus the bucketing.

    This is the streaming analogue of the miner's per-attribute assignment
    cache — everything needed to materialize any number of
    :class:`BucketProfile`\\ s for the attribute without another scan.
    """

    attribute: str
    bucketing: Bucketing
    sizes: np.ndarray
    conditional: dict[Condition, np.ndarray]
    sums: dict[str, np.ndarray]
    lows: np.ndarray
    highs: np.ndarray
    total: int

    @property
    def nonempty(self) -> np.ndarray:
        """Boolean mask of buckets that received at least one tuple."""
        return self.sizes > 0

    def profile(self, objective: Condition, label: str | None = None) -> BucketProfile:
        """The confidence/support profile of one counted objective."""
        if objective not in self.conditional:
            raise PipelineError(
                f"objective {objective} was not counted for attribute "
                f"{self.attribute!r}"
            )
        keep = self.nonempty
        if not np.any(keep):
            raise PipelineError("the source contained no tuples")
        return BucketProfile(
            attribute=self.attribute,
            objective_label=label if label is not None else str(objective),
            sizes=self.sizes[keep].astype(np.float64),
            values=self.conditional[objective][keep].astype(np.float64),
            lows=self.lows[keep],
            highs=self.highs[keep],
            total=float(self.total),
        )

    def average_profile(self, target: str) -> BucketProfile:
        """The §5 average-operator profile of one counted target attribute."""
        if target not in self.sums:
            raise PipelineError(
                f"target {target!r} was not counted for attribute "
                f"{self.attribute!r}"
            )
        keep = self.nonempty
        if not np.any(keep):
            raise PipelineError("the source contained no tuples")
        return BucketProfile(
            attribute=self.attribute,
            objective_label=f"avg({target})",
            sizes=self.sizes[keep].astype(np.float64),
            values=self.sums[target][keep],
            lows=self.lows[keep],
            highs=self.highs[keep],
            total=float(self.total),
        )


@dataclass(frozen=True)
class ProfileRequest:
    """One profile-construction request collected into a :class:`ScanPlan`.

    ``kind`` is one of ``"bucket"`` (per-bucket sizes, objective counts, §5
    target sums), ``"average"`` (an alias of ``bucket`` carrying only
    targets), ``"presumptive"`` (§4.3 conjunct profiles of one objective),
    or ``"grid"`` (a §1.4 2-D cell grid).  ``num_buckets`` (and
    ``column_num_buckets`` for grids) override the builder-wide bucket count
    for the request's axes.
    """

    kind: str
    attribute: str
    objectives: tuple[Condition, ...] = ()
    targets: tuple[str, ...] = ()
    objective: Condition | None = None
    presumptives: tuple[Condition, ...] = ()
    column_attribute: str | None = None
    num_buckets: int | None = None
    column_num_buckets: int | None = None


class ScanPlan:
    """Every profile the miner needs from a source, as one batched plan.

    A plan collects any mix of bucket, average, presumptive, and grid
    requests; :meth:`ProfileBuilder.execute_plan` then answers all of them
    from a **single physical scan** of the source (plus, when bucket
    boundaries still need sampling and the projected columns exceed the
    cache budget, one more).  Each ``add_*`` method returns a request id for
    looking the result up on the returned :class:`PlanResults`.
    """

    def __init__(self) -> None:
        self._requests: list[ProfileRequest] = []

    @property
    def requests(self) -> tuple[ProfileRequest, ...]:
        """The collected requests, in id order."""
        return tuple(self._requests)

    def __len__(self) -> int:
        return len(self._requests)

    def _append(self, request: ProfileRequest) -> int:
        if request.num_buckets is not None and request.num_buckets <= 0:
            raise PipelineError("num_buckets must be positive")
        if (
            request.column_num_buckets is not None
            and request.column_num_buckets <= 0
        ):
            raise PipelineError("num_buckets must be positive")
        self._requests.append(request)
        return len(self._requests) - 1

    def add_bucket(
        self,
        attribute: str,
        objectives: Sequence[Condition] = (),
        targets: Sequence[str] = (),
        num_buckets: int | None = None,
    ) -> int:
        """Request per-bucket sizes, objective counts, and §5 target sums."""
        return self._append(
            ProfileRequest(
                kind="bucket",
                attribute=attribute,
                objectives=tuple(dict.fromkeys(objectives)),
                targets=tuple(dict.fromkeys(targets)),
                num_buckets=num_buckets,
            )
        )

    def add_average(
        self,
        attribute: str,
        targets: Sequence[str],
        num_buckets: int | None = None,
    ) -> int:
        """Request §5 average-operator sums of ``targets`` over ``attribute``."""
        return self._append(
            ProfileRequest(
                kind="average",
                attribute=attribute,
                targets=tuple(dict.fromkeys(targets)),
                num_buckets=num_buckets,
            )
        )

    def add_presumptive(
        self,
        attribute: str,
        objective: Condition,
        presumptives: Sequence[Condition],
        num_buckets: int | None = None,
    ) -> int:
        """Request §4.3 profiles of ``objective`` under candidate conjuncts."""
        conjuncts = tuple(dict.fromkeys(presumptives))
        if not conjuncts:
            raise PipelineError(
                "a presumptive request needs at least one conjunct"
            )
        return self._append(
            ProfileRequest(
                kind="presumptive",
                attribute=attribute,
                objective=objective,
                presumptives=conjuncts,
                num_buckets=num_buckets,
            )
        )

    def add_grid(
        self,
        row_attribute: str,
        column_attribute: str,
        objectives: Sequence[Condition] = (),
        grid: tuple[int, int] | None = None,
    ) -> int:
        """Request a §1.4 2-D cell grid of every objective."""
        if row_attribute == column_attribute:
            raise PipelineError(
                "the grid's row and column attributes must differ"
            )
        return self._append(
            ProfileRequest(
                kind="grid",
                attribute=row_attribute,
                column_attribute=column_attribute,
                objectives=tuple(dict.fromkeys(objectives)),
                num_buckets=None if grid is None else int(grid[0]),
                column_num_buckets=None if grid is None else int(grid[1]),
            )
        )


class PlanResults:
    """Merged counts of one executed :class:`ScanPlan`, accessed by request id."""

    def __init__(
        self,
        requests: Sequence[ProfileRequest],
        parts: Sequence[ChunkCounts | GridChunkCounts],
        bucketings: Sequence[tuple[Bucketing, ...]],
    ) -> None:
        self._requests = list(requests)
        self._parts = list(parts)
        self._bucketings = list(bucketings)

    def request(self, request_id: int) -> ProfileRequest:
        """The request a result id refers to."""
        return self._requests[request_id]

    def bucketing(self, request_id: int) -> Bucketing:
        """The resolved bucketing of a 1-D request's attribute."""
        return self._bucketings[request_id][0]

    @property
    def parts(self) -> tuple[ChunkCounts | GridChunkCounts, ...]:
        """The merged counting partials, one per request (id order).

        This is the persistence surface of the profile store: together with
        :meth:`request_bucketings` it captures everything a plan execution
        produced, and feeding both back into a fresh :class:`PlanResults`
        reproduces every profile bit for bit.
        """
        return tuple(self._parts)

    def request_bucketings(self, request_id: int) -> tuple[Bucketing, ...]:
        """The resolved bucketing(s) of a request (two entries for grids)."""
        return self._bucketings[request_id]

    def counts(self, request_id: int) -> AttributeCounts:
        """The :class:`AttributeCounts` of a bucket/average request."""
        request = self._requests[request_id]
        if request.kind not in ("bucket", "average"):
            raise PipelineError(
                f"request {request_id} is a {request.kind} request, not bucket"
            )
        part = self._parts[request_id]
        assert isinstance(part, ChunkCounts)
        return AttributeCounts(
            attribute=request.attribute,
            bucketing=self._bucketings[request_id][0],
            sizes=part.sizes,
            conditional={
                objective: part.conditional[row]
                for row, objective in enumerate(request.objectives)
            },
            sums={
                target: part.sums[row]
                for row, target in enumerate(request.targets)
            },
            lows=part.lows,
            highs=part.highs,
            total=part.num_tuples,
        )

    def presumptive_profiles(
        self, request_id: int, label: str | None = None
    ) -> dict[Condition, BucketProfile]:
        """The §4.3 profiles of a presumptive request, one per conjunct."""
        request = self._requests[request_id]
        if request.kind != "presumptive":
            raise PipelineError(
                f"request {request_id} is a {request.kind} request, "
                "not presumptive"
            )
        part = self._parts[request_id]
        assert isinstance(part, ChunkCounts)
        if part.num_tuples == 0:
            raise PipelineError("the source contained no tuples")
        profiles: dict[Condition, BucketProfile] = {}
        for row, presumptive in enumerate(request.presumptives):
            sizes = part.conditional[2 * row]
            keep = sizes > 0
            if not np.any(keep):
                raise PipelineError(
                    "no tuple satisfies the presumptive conjunct; "
                    "cannot build a profile"
                )
            profiles[presumptive] = BucketProfile(
                attribute=request.attribute,
                objective_label=(
                    label if label is not None else str(request.objective)
                ),
                sizes=sizes[keep].astype(np.float64),
                values=part.conditional[2 * row + 1][keep].astype(np.float64),
                lows=part.mask_lows[row][keep],
                highs=part.mask_highs[row][keep],
                total=float(part.num_tuples),
            )
        return profiles

    def grid_counts(self, request_id: int) -> "GridCounts":
        """The :class:`~repro.pipeline.grid.GridCounts` of a grid request."""
        from repro.pipeline.grid import GridCounts

        request = self._requests[request_id]
        if request.kind != "grid":
            raise PipelineError(
                f"request {request_id} is a {request.kind} request, not grid"
            )
        part = self._parts[request_id]
        assert isinstance(part, GridChunkCounts)
        row_bucketing, column_bucketing = self._bucketings[request_id]
        assert request.column_attribute is not None
        return GridCounts(
            row_attribute=request.attribute,
            column_attribute=request.column_attribute,
            row_bucketing=row_bucketing,
            column_bucketing=column_bucketing,
            sizes=part.sizes,
            conditional={
                objective: part.conditional[row]
                for row, objective in enumerate(request.objectives)
            },
            row_lows=part.row_lows,
            row_highs=part.row_highs,
            column_lows=part.column_lows,
            column_highs=part.column_highs,
            total=part.num_tuples,
        )


class _PlanPayloadBuilder:
    """Turn relation chunks into fused-kernel payloads (parent-side only).

    Per chunk, every axis column is extracted once, every distinct condition
    is evaluated into a tuple mask once (derived ``C1 ∧ C2`` rows reuse the
    cached single-condition masks), and the results stack into the single
    mask/weight matrices the :class:`~repro.bucketing.counting.KernelPlan`
    indexes by slot.
    """

    def __init__(
        self,
        column_names: Sequence[str],
        mask_descriptors: Sequence[tuple[Condition, ...]],
        weight_targets: Sequence[str],
    ) -> None:
        self._column_names = list(column_names)
        self._mask_descriptors = list(mask_descriptors)
        self._weight_targets = list(weight_targets)

    def needed_columns(self) -> list[str]:
        """Every source column the payloads touch (the projection pushdown)."""
        needed = dict.fromkeys(self._column_names)
        for descriptor in self._mask_descriptors:
            for condition in descriptor:
                needed.update(dict.fromkeys(condition.attribute_names()))
        needed.update(dict.fromkeys(self._weight_targets))
        return list(needed)

    def build(
        self, chunk: Relation
    ) -> tuple[tuple[np.ndarray, ...], np.ndarray | None, np.ndarray | None]:
        columns = tuple(
            np.asarray(chunk.numeric_column(name), dtype=np.float64)
            for name in self._column_names
        )
        num_tuples = chunk.num_tuples
        cache: dict[Condition, np.ndarray] = {}

        def condition_mask(condition: Condition) -> np.ndarray:
            if condition not in cache:
                cache[condition] = np.asarray(condition.mask(chunk), dtype=bool)
            return cache[condition]

        masks: np.ndarray | None = None
        if self._mask_descriptors:
            masks = np.empty((len(self._mask_descriptors), num_tuples), dtype=bool)
            for row, descriptor in enumerate(self._mask_descriptors):
                combined = condition_mask(descriptor[0])
                for condition in descriptor[1:]:
                    combined = combined & condition_mask(condition)
                masks[row] = combined
        weights: np.ndarray | None = None
        if self._weight_targets:
            weights = np.empty(
                (len(self._weight_targets), num_tuples), dtype=np.float64
            )
            for row, target in enumerate(self._weight_targets):
                weights[row] = np.asarray(
                    chunk.numeric_column(target), dtype=np.float64
                )
        return columns, masks, weights

    @staticmethod
    def nbytes(
        payload: tuple[tuple[np.ndarray, ...], np.ndarray | None, np.ndarray | None]
    ) -> int:
        """Approximate resident size of one payload (cache accounting)."""
        columns, masks, weights = payload
        total = sum(column.nbytes for column in columns)
        if masks is not None:
            total += masks.nbytes
        if weights is not None:
            total += weights.nbytes
        return total


@dataclass(frozen=True)
class CompiledPlan:
    """A :class:`ScanPlan` compiled against fully-resolved bucketings.

    Everything a counting pass needs, with the boundary question already
    settled: the fused :class:`~repro.bucketing.counting.KernelPlan`, the
    payload builder that evaluates relation chunks into kernel payloads, the
    projected source columns, and the per-request bucketing resolution.
    This is the unit of work the shard plane hands to each worker — compile
    once on the coordinator, count any span anywhere, merge the partials.
    """

    requests: tuple[ProfileRequest, ...]
    kernel_plan: KernelPlan
    payload_builder: _PlanPayloadBuilder
    needed_columns: tuple[str, ...]
    request_bucketings: tuple[tuple[Bucketing, ...], ...]

    def count_chunks(self, chunks: Iterable[Relation]) -> PlanChunkCounts:
        """Count relation chunks serially, merging partials in chunk order."""
        totals = self.kernel_plan.zeros()
        for chunk in chunks:
            totals.merge(
                count_plan_chunk(
                    self.kernel_plan, self.payload_builder.build(chunk)
                )
            )
        return totals

    def results(self, totals: PlanChunkCounts) -> PlanResults:
        """Wrap merged totals as the plan's :class:`PlanResults`."""
        return PlanResults(
            list(self.requests), totals.parts, list(self.request_bucketings)
        )


# Compiled plan shipped to each multiprocessing worker exactly once (via the
# pool initializer); per-chunk traffic is then payload batches only.
_WORKER_PLAN: KernelPlan | None = None


def _init_plan_worker(plan: KernelPlan) -> None:
    """Process-pool initializer: pin the fused plan in the worker process."""
    global _WORKER_PLAN
    _WORKER_PLAN = plan


def _count_plan_batch(batch: list) -> PlanChunkCounts:
    """Count a batch of consecutive chunks and merge them worker-side."""
    assert _WORKER_PLAN is not None
    totals: PlanChunkCounts | None = None
    for payload in batch:
        part = count_plan_chunk(_WORKER_PLAN, payload)
        totals = part if totals is None else totals.merge(part)
    assert totals is not None
    return totals


class ProfileBuilder:
    """Build bucket profiles from any data source with a pluggable executor.

    Parameters
    ----------
    num_buckets:
        Bucket count targeted per attribute (ties in the boundary sample can
        reduce it, exactly as in the in-memory bucketizer).
    executor:
        ``"serial"``, ``"streaming"``, or ``"multiprocessing"`` — where the
        counting kernel runs (see the module docstring).  All three produce
        bit-identical profiles.
    sample_factor:
        Reservoir points per bucket for the boundary sample (the paper's
        ``S = 40·M``).
    seed:
        Base seed of the boundary-sampling RNG.  Each attribute derives its
        own generator from ``(seed, crc32(attribute))``, so the boundaries of
        one attribute do not depend on which other attributes are requested,
        how the stream is chunked, or which executor counts it.
    max_workers:
        Worker processes for the multiprocessing executor (default: one per
        CPU, capped at 8).
    cache_budget_mb:
        Budget (MiB) for caching counting payloads during the sampling scan
        so a plan needs only one physical source scan; past the budget the
        plan falls back to a separate counting scan.  Default: the
        ``REPRO_PLAN_CACHE_MB`` environment variable, else 512.
    kernel_tier:
        ``"auto"`` or ``"numpy"`` (default: the ``REPRO_KERNEL_TIER``
        environment variable, then ``"auto"``).  Both resolve to the one
        NumPy counting kernel; an unknown name — including the removed
        ``"compiled"`` tier — raises :class:`~repro.exceptions.KernelError`
        at construction.
    """

    def __init__(
        self,
        num_buckets: int = 1000,
        *,
        executor: str = "serial",
        sample_factor: int = DEFAULT_SAMPLE_FACTOR,
        seed: int = 0,
        max_workers: int | None = None,
        cache_budget_mb: int | None = None,
        kernel_tier: str | None = None,
    ) -> None:
        if num_buckets <= 0:
            raise PipelineError("num_buckets must be positive")
        if executor not in EXECUTORS:
            raise PipelineError(
                f"unknown executor {executor!r}; use one of {', '.join(EXECUTORS)}"
            )
        if sample_factor <= 0:
            raise PipelineError("sample_factor must be positive")
        if max_workers is not None and max_workers <= 0:
            raise PipelineError("max_workers must be positive")
        if cache_budget_mb is None:
            raw = os.environ.get("REPRO_PLAN_CACHE_MB", "")
            try:
                cache_budget_mb = int(raw) if raw else _DEFAULT_PLAN_CACHE_MB
            except ValueError:
                raise PipelineError(
                    f"REPRO_PLAN_CACHE_MB must be an integer, got {raw!r}"
                ) from None
        if cache_budget_mb < 0:
            raise PipelineError("cache_budget_mb must be non-negative")
        self._num_buckets = int(num_buckets)
        self._executor = executor
        self._sample_factor = int(sample_factor)
        self._seed = int(seed)
        self._max_workers = max_workers
        self._cache_budget_bytes = int(cache_budget_mb) * 1024 * 1024
        self._kernel_tier = resolve_kernel_tier(kernel_tier)

    # -- configuration ---------------------------------------------------------

    @property
    def num_buckets(self) -> int:
        """Requested buckets per attribute."""
        return self._num_buckets

    @property
    def executor(self) -> str:
        """The executor strategy in use."""
        return self._executor

    @property
    def sample_factor(self) -> int:
        """Reservoir points per bucket of the boundary sample."""
        return self._sample_factor

    @property
    def seed(self) -> int:
        """Base seed of the boundary-sampling RNG."""
        return self._seed

    @property
    def kernel_tier(self) -> str:
        """The resolved kernel tier (always ``"numpy"``)."""
        return self._kernel_tier

    # -- pass 1: boundary sampling ---------------------------------------------

    def _attribute_rng(self, attribute: str) -> np.random.Generator:
        """Deterministic per-attribute generator (independent of the request set)."""
        return np.random.default_rng(
            [self._seed, zlib.crc32(attribute.encode("utf-8"))]
        )

    def sample_bucketings(
        self,
        source: DataSource,
        attributes: Sequence[str],
        num_buckets: Mapping[str, int] | None = None,
    ) -> dict[str, Bucketing]:
        """One scan of ``source`` sampling bucket boundaries for every attribute.

        Algorithm 3.1 steps 1–3 via reservoir sampling: uniform without
        knowing the stream length, so the same code serves in-memory,
        chunked, and file sources.  Duplicate cut points (heavily tied data)
        are merged as the in-memory bucketizer does.  ``num_buckets`` entries
        override the builder-wide bucket count per attribute (the 2-D grid
        builder uses this for non-square grids); each attribute's reservoir
        is sized ``sample_factor`` times its own bucket count.
        """
        attributes = list(dict.fromkeys(attributes))
        if not attributes:
            return {}
        requested = {
            attribute: int((num_buckets or {}).get(attribute, self._num_buckets))
            for attribute in attributes
        }
        if any(count <= 0 for count in requested.values()):
            raise PipelineError("num_buckets must be positive")
        pairs = [(attribute, requested[attribute]) for attribute in attributes]
        samplers = self._make_samplers(pairs)
        if samplers:
            columns = list(dict.fromkeys(attribute for attribute, _ in samplers))
            for chunk in source.scan(columns):
                for (attribute, _), sampler in samplers.items():
                    sampler.extend(chunk.numeric_column(attribute))
        sampled = self._resolve_sampled(pairs, samplers)
        return {
            attribute: sampled[(attribute, requested[attribute])]
            for attribute in attributes
        }

    def _make_samplers(
        self, pairs: Sequence[tuple[str, int]]
    ) -> dict[tuple[str, int], ReservoirSampler]:
        """One reservoir per distinct ``(attribute, bucket count)`` pair.

        Each reservoir draws from its own ``(seed, crc32(attribute))``
        generator, exactly as a standalone :meth:`sample_bucketings` call
        for that pair would — so however many requests a plan fuses, the
        sampled boundaries are bit-identical to the per-request scans.
        """
        return {
            (attribute, count): ReservoirSampler(
                self._sample_factor * count,
                rng=self._attribute_rng(attribute),
            )
            for attribute, count in dict.fromkeys(pairs)
            if count > 1
        }

    def _resolve_sampled(
        self,
        pairs: Sequence[tuple[str, int]],
        samplers: Mapping[tuple[str, int], ReservoirSampler],
    ) -> dict[tuple[str, int], Bucketing]:
        """Sorted-sample boundaries for every requested pair (steps 2–3)."""
        bucketings: dict[tuple[str, int], Bucketing] = {}
        for attribute, count in dict.fromkeys(pairs):
            if count == 1:
                bucketings[(attribute, count)] = Bucketing.single_bucket()
                continue
            sample = samplers[(attribute, count)].sample()
            if sample.size == 0:
                raise PipelineError(
                    f"the source contained no values for attribute {attribute!r}"
                )
            sample.sort(kind="stable")
            bucketings[(attribute, count)] = equidepth_cuts_from_sorted(
                sample, count
            ).deduplicated()
        return bucketings

    # -- fused scan planning ---------------------------------------------------

    def _axis_pairs(self, request: ProfileRequest) -> list[tuple[str, int]]:
        """The ``(attribute, bucket count)`` axis pair(s) a request buckets on."""
        pairs = [(request.attribute, request.num_buckets or self._num_buckets)]
        if request.kind == "grid":
            assert request.column_attribute is not None
            pairs.append(
                (
                    request.column_attribute,
                    request.column_num_buckets or self._num_buckets,
                )
            )
        return pairs

    def _plan_wiring(
        self, requests: Sequence[ProfileRequest]
    ) -> tuple[dict[str, int], list[dict], _PlanPayloadBuilder, list[str]]:
        """Slot compilation: one column slot per axis attribute, one mask row
        per distinct condition conjunction, one weight row per target.

        Returns the column-slot table, the per-request slot wiring, the
        payload builder that evaluates chunks into those slots, and the
        projected source columns the payloads touch.
        """
        column_slots: dict[str, int] = {}
        mask_slots: dict[tuple[Condition, ...], int] = {}
        weight_slots: dict[str, int] = {}

        def column_slot(attribute: str) -> int:
            return column_slots.setdefault(attribute, len(column_slots))

        def mask_slot(descriptor: tuple[Condition, ...]) -> int:
            descriptor = tuple(dict.fromkeys(descriptor))
            return mask_slots.setdefault(descriptor, len(mask_slots))

        def weight_slot(target: str) -> int:
            return weight_slots.setdefault(target, len(weight_slots))

        request_wiring: list[dict] = []
        for request in requests:
            wiring: dict = {"columns": [column_slot(request.attribute)]}
            if request.kind == "grid":
                assert request.column_attribute is not None
                wiring["columns"].append(column_slot(request.column_attribute))
                wiring["masks"] = [
                    mask_slot((objective,)) for objective in request.objectives
                ]
            elif request.kind == "presumptive":
                assert request.objective is not None
                interleaved: list[int] = []
                for presumptive in request.presumptives:
                    interleaved.append(mask_slot((presumptive,)))
                    interleaved.append(
                        mask_slot((presumptive, request.objective))
                    )
                wiring["masks"] = interleaved
                wiring["bounds"] = [
                    mask_slot((presumptive,))
                    for presumptive in request.presumptives
                ]
            else:
                wiring["masks"] = [
                    mask_slot((objective,)) for objective in request.objectives
                ]
                wiring["weights"] = [
                    weight_slot(target) for target in request.targets
                ]
            request_wiring.append(wiring)

        payload_builder = _PlanPayloadBuilder(
            list(column_slots), list(mask_slots), list(weight_slots)
        )
        return (
            column_slots,
            request_wiring,
            payload_builder,
            payload_builder.needed_columns(),
        )

    def _plan_kernel(
        self,
        requests: Sequence[ProfileRequest],
        column_slots: Mapping[str, int],
        request_wiring: Sequence[dict],
        resolve,
    ) -> tuple[KernelPlan, list[tuple[Bucketing, ...]]]:
        """Compile the fused kernel: one axis per distinct ``(attribute,
        bucketing)`` (bounds kept when any non-presumptive segment reads
        them), one segment per request.  ``resolve(attribute, count)`` must
        return the same :class:`Bucketing` object for the same pair.
        """
        axis_ids: dict[tuple[str, int], int] = {}
        axis_specs: list[dict] = []

        def axis_id(attribute: str, bucketing: Bucketing, bounds: bool) -> int:
            key = (attribute, id(bucketing))
            if key not in axis_ids:
                axis_ids[key] = len(axis_specs)
                axis_specs.append(
                    {
                        "column": column_slots[attribute],
                        "cuts": bucketing.cuts,
                        "bounds": bounds,
                    }
                )
            elif bounds:
                axis_specs[axis_ids[key]]["bounds"] = True
            return axis_ids[key]

        segments: list[ValueSegment | GridSegment] = []
        request_bucketings: list[tuple[Bucketing, ...]] = []
        for request, wiring in zip(requests, request_wiring):
            pairs = self._axis_pairs(request)
            resolved = tuple(resolve(attribute, count) for attribute, count in pairs)
            request_bucketings.append(resolved)
            if request.kind == "grid":
                segments.append(
                    GridSegment(
                        row_axis=axis_id(pairs[0][0], resolved[0], True),
                        column_axis=axis_id(pairs[1][0], resolved[1], True),
                        mask_slots=tuple(wiring["masks"]),
                    )
                )
            elif request.kind == "presumptive":
                segments.append(
                    ValueSegment(
                        axis=axis_id(pairs[0][0], resolved[0], False),
                        mask_slots=tuple(wiring["masks"]),
                        bound_mask_slots=tuple(wiring["bounds"]),
                        with_bounds=False,
                    )
                )
            else:
                segments.append(
                    ValueSegment(
                        axis=axis_id(pairs[0][0], resolved[0], True),
                        mask_slots=tuple(wiring["masks"]),
                        weight_slots=tuple(wiring.get("weights", ())),
                        with_bounds=True,
                    )
                )

        kernel_plan = KernelPlan(axes=tuple(
            AxisSpec(
                column=spec["column"], cuts=spec["cuts"], with_bounds=spec["bounds"]
            )
            for spec in axis_specs
        ), segments=tuple(segments))
        return kernel_plan, request_bucketings

    def plan_axis_pairs(self, plan: ScanPlan) -> list[tuple[str, int]]:
        """Every distinct ``(attribute, bucket count)`` axis pair of a plan."""
        return list(
            dict.fromkeys(
                pair
                for request in plan.requests
                for pair in self._axis_pairs(request)
            )
        )

    def sample_axis_bucketings(
        self, source: DataSource, pairs: Sequence[tuple[str, int]]
    ) -> dict[tuple[str, int], Bucketing]:
        """One scan sampling boundaries for explicit ``(attribute, count)`` pairs.

        The pair-keyed sibling of :meth:`sample_bucketings` — a plan may
        bucket the same attribute at two widths (a 1-D profile and a grid
        axis), which an attribute-keyed mapping cannot express.  Each pair's
        reservoir draws from the attribute's own seeded generator, so the
        boundaries are bit-identical to the sampling pass
        :meth:`execute_plan` runs for the same pairs.
        """
        pairs = list(dict.fromkeys(pairs))
        samplers = self._make_samplers(pairs)
        if samplers:
            columns = list(
                dict.fromkeys(attribute for attribute, _ in samplers)
            )
            for chunk in source.scan(columns):
                for (attribute, _), sampler in samplers.items():
                    sampler.extend(chunk.numeric_column(attribute))
        return self._resolve_sampled(pairs, samplers)

    def compile_plan(
        self,
        plan: ScanPlan,
        bucketings: Mapping[str | tuple[str, int], Bucketing],
    ) -> CompiledPlan:
        """Compile a plan against *fully-resolved* bucketings (no sampling).

        ``bucketings`` must cover every axis of the plan, keyed either by
        ``(attribute, bucket count)`` pair (exact) or by plain attribute
        name (a fallback for every width); the boundary-sampling pass has
        already happened (or the boundaries came from a store snapshot).
        The compiled plan is position-independent: counting any subset of
        the source's chunks through it and merging the partials in chunk
        order reproduces what a full :meth:`execute_plan` fold over those
        chunks would produce — the foundation of the shard plane's
        scatter/gather.
        """
        requests = list(plan.requests)
        column_slots, request_wiring, payload_builder, needed_columns = (
            self._plan_wiring(requests)
        )

        def resolve(attribute: str, count: int) -> Bucketing:
            if (attribute, count) in bucketings:
                return bucketings[(attribute, count)]
            if attribute in bucketings:
                return bucketings[attribute]
            raise PipelineError(
                f"compile_plan received no bucketing for attribute "
                f"{attribute!r} at {count} buckets"
            )

        kernel_plan, request_bucketings = self._plan_kernel(
            requests, column_slots, request_wiring, resolve
        )
        return CompiledPlan(
            requests=tuple(requests),
            kernel_plan=kernel_plan,
            payload_builder=payload_builder,
            needed_columns=tuple(needed_columns),
            request_bucketings=tuple(request_bucketings),
        )

    def execute_plan(
        self,
        source: DataSource,
        plan: ScanPlan,
        bucketings: Mapping[str, Bucketing] | None = None,
        store: "object | None" = None,
        shards: int | None = None,
    ) -> PlanResults:
        """Answer every request of ``plan`` from one fold over ``source``.

        The plan compiles into one :class:`~repro.bucketing.counting.KernelPlan`
        — shared axes, deduplicated condition slots, one segment per request
        — and a single counting fold under the builder's executor produces
        all the profiles.  Attributes without a ``bucketings`` override get
        their boundaries from the reservoir pass first; during that sampling
        scan the counting payloads are cached (up to ``cache_budget_mb``),
        so the whole plan normally touches the source **once** — and exactly
        once when every bucketing is supplied.  Results are bit-identical to
        running each request through its per-request ``build_*`` method.

        ``store`` routes the execution through a persistent
        :class:`~repro.store.ProfileStore`: a matching snapshot is served
        with **zero** physical source scans, an append-only grown source
        counts only its tail (frozen boundaries, staleness-tracked), and
        anything else executes normally and is persisted for next time.
        The store fixes its own boundaries, so it cannot be combined with
        ``bucketings`` overrides.

        ``shards`` routes the counting fold through a default-configured
        :class:`~repro.shard.ShardCoordinator` with that many shards —
        boundary sampling stays a single serial pass (reservoir streams are
        scan-order-sensitive), then each shard counts its own span of the
        source and the partials fold in shard order.  See
        :mod:`repro.shard` for timeouts, retries, checkpoint/resume, and
        degradation policies.
        """
        if shards is not None:
            if store is not None:
                raise PipelineError(
                    "shards cannot be combined with a store; run the "
                    "ShardCoordinator directly and persist via store.put"
                )
            from repro.shard import ShardCoordinator

            coordinator = ShardCoordinator(self, num_shards=shards)
            return coordinator.mine(source, plan, bucketings=bucketings).results
        if store is not None:
            if bucketings:
                raise PipelineError(
                    "bucketings overrides cannot be combined with a store; "
                    "stored snapshots fix their own boundaries"
                )
            results, _ = store.serve(self, source, plan)
            return results
        requests = list(plan.requests)
        if not requests:
            return PlanResults([], [], [])
        overrides = dict(bucketings or {})

        needed_pairs = list(
            dict.fromkeys(
                pair
                for request in requests
                for pair in self._axis_pairs(request)
                if pair[0] not in overrides
            )
        )

        column_slots, request_wiring, payload_builder, needed_columns = (
            self._plan_wiring(requests)
        )

        # Boundary sampling — with the counting payloads cached along the
        # way, this is the plan's one and only pass over the source.
        cache: list | None = None
        sampled: dict[tuple[str, int], Bucketing] = {}
        if needed_pairs:
            samplers = self._make_samplers(needed_pairs)
            if samplers:
                cache = [] if self._cache_budget_bytes > 0 else None
                cache_bytes = 0
                for chunk in source.scan(needed_columns):
                    for (attribute, _), sampler in samplers.items():
                        sampler.extend(chunk.numeric_column(attribute))
                    if cache is not None:
                        payload = payload_builder.build(chunk)
                        cache_bytes += _PlanPayloadBuilder.nbytes(payload)
                        if cache_bytes > self._cache_budget_bytes:
                            cache = None
                        else:
                            cache.append(payload)
            sampled = self._resolve_sampled(needed_pairs, samplers)

        def resolve(attribute: str, count: int) -> Bucketing:
            if attribute in overrides:
                return overrides[attribute]
            return sampled[(attribute, count)]

        kernel_plan, request_bucketings = self._plan_kernel(
            requests, column_slots, request_wiring, resolve
        )

        if cache is not None:
            payloads: Iterator = iter(cache)
        else:
            payloads = (
                payload_builder.build(chunk)
                for chunk in source.scan(needed_columns)
            )
        totals = self._fold_plan(kernel_plan, payloads)
        return PlanResults(requests, totals.parts, request_bucketings)

    def execute_plan_tail(
        self,
        source: DataSource,
        plan: ScanPlan,
        bucketings: Sequence[tuple[Bucketing, ...]],
        start: int,
        initial: PlanChunkCounts | None = None,
    ) -> PlanResults:
        """Fold only the source's tail into already-merged plan totals.

        This is the incremental-append half of the profile store: the bucket
        boundaries stay **frozen** at their snapshot values (``bucketings``
        is the per-request resolution of the original execution), the fused
        kernel counts only the chunks of ``source.scan_tail(start)``, and
        each tail partial merges into ``initial`` in chunk order — so with
        the serial/streaming executors the merged result is *by
        construction* the same sequence of float additions a full re-count
        over head-then-tail would perform, making append-then-serve
        bit-identical to rebuild-with-frozen-boundaries.  ``initial`` is
        mutated in place (callers pass a freshly deserialized copy); with
        ``initial=None`` and ``start=0`` this *is* that frozen-boundary
        rebuild — the differential harness uses exactly that as the append
        parity oracle.
        """
        requests = list(plan.requests)
        if len(requests) != len(bucketings):
            raise PipelineError(
                "stored bucketings do not match the plan's request count"
            )
        if not requests:
            return PlanResults([], [], [])
        column_slots, request_wiring, payload_builder, needed_columns = (
            self._plan_wiring(requests)
        )
        resolved_pairs: dict[tuple[str, int], Bucketing] = {}
        for request, resolved in zip(requests, bucketings):
            pairs = self._axis_pairs(request)
            if len(pairs) != len(resolved):
                raise PipelineError(
                    "stored bucketings do not match a request's axis count"
                )
            for pair, bucketing in zip(pairs, resolved):
                resolved_pairs.setdefault(pair, bucketing)

        def resolve(attribute: str, count: int) -> Bucketing:
            return resolved_pairs[(attribute, count)]

        kernel_plan, request_bucketings = self._plan_kernel(
            requests, column_slots, request_wiring, resolve
        )
        payloads = (
            payload_builder.build(chunk)
            for chunk in source.scan_tail(start, needed_columns)
        )
        totals = self._fold_plan(kernel_plan, payloads, initial=initial)
        return PlanResults(requests, totals.parts, request_bucketings)

    def _fold_plan(
        self,
        kernel_plan: KernelPlan,
        payloads: Iterator,
        initial: PlanChunkCounts | None = None,
    ) -> PlanChunkCounts:
        """Run the fused kernel over every payload under the executor strategy.

        Serial/streaming count and merge one chunk at a time.  The
        multiprocessing executor ships the compiled plan to each worker once
        (pool initializer), streams payloads in batches of
        ``_PLAN_BATCH_CHUNKS`` consecutive chunks, and each worker returns
        one merged :class:`PlanChunkCounts` per batch; batches are submitted
        and merged oldest-first, so the overall merge order equals the chunk
        order and stays bit-identical to the serial fold.  ``initial``
        seeds the fold with pre-merged totals (the store's append path)
        instead of the plan's zeros.
        """
        totals = kernel_plan.zeros() if initial is None else initial
        if self._executor in ("serial", "streaming"):
            for payload in payloads:
                totals.merge(count_plan_chunk(kernel_plan, payload))
            return totals
        workers = self._max_workers or min(8, os.cpu_count() or 1)
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_plan_worker,
            initargs=(kernel_plan,),
        ) as pool:
            window: deque = deque()
            submitted = 0
            merged = 0
            batch: list = []
            try:
                for payload in payloads:
                    batch.append(payload)
                    if len(batch) == _PLAN_BATCH_CHUNKS:
                        window.append(pool.submit(_count_plan_batch, batch))
                        submitted += 1
                        batch = []
                        if len(window) >= 2 * workers:
                            totals.merge(window.popleft().result())
                            merged += 1
                if batch:
                    window.append(pool.submit(_count_plan_batch, batch))
                    submitted += 1
                while window:
                    totals.merge(window.popleft().result())
                    merged += 1
            except BrokenExecutor as exc:
                raise ExecutorError(
                    "a multiprocessing counting worker died while processing "
                    f"chunk batch {merged} "
                    f"(chunks {merged * _PLAN_BATCH_CHUNKS}.."
                    f"{(merged + 1) * _PLAN_BATCH_CHUNKS - 1}) of the plan "
                    "fold (out-of-memory kill or crash); its partial counts "
                    "are unrecoverable"
                ) from exc
        return totals

    # -- per-request entry points (one-request plans) --------------------------

    def build_many(
        self,
        source: DataSource,
        specs: Iterable[AttributeSpec],
        bucketings: Mapping[str, Bucketing] | None = None,
    ) -> dict[str, AttributeCounts]:
        """Count every spec in at most two — normally **one** — scans of ``source``.

        Specs naming the same attribute are merged, so a whole mining catalog
        — many objectives and average targets over several attributes —
        costs a single fused scan in total, however many profiles it
        produces (the boundary-sampling pass caches the counting payloads;
        only past the cache budget does counting re-scan the source).
        ``bucketings`` entries skip the sampling pass for their attribute
        (e.g. boundaries computed elsewhere, or reused from a previous
        build).
        """
        merged: dict[str, AttributeSpec] = {}
        for spec in specs:
            if spec.attribute in merged:
                merged[spec.attribute] = merged[spec.attribute].merged_with(spec)
            else:
                merged[spec.attribute] = spec
        if not merged:
            return {}
        plan = ScanPlan()
        ids = {
            spec.attribute: plan.add_bucket(
                spec.attribute, objectives=spec.objectives, targets=spec.targets
            )
            for spec in merged.values()
        }
        results = self.execute_plan(source, plan, bucketings=bucketings)
        return {
            attribute: results.counts(request_id)
            for attribute, request_id in ids.items()
        }

    def build_counts(
        self,
        source: DataSource,
        attribute: str,
        objectives: Sequence[Condition] = (),
        targets: Sequence[str] = (),
        bucketing: Bucketing | None = None,
    ) -> AttributeCounts:
        """Count one attribute (any number of objectives/targets) in one fused scan."""
        spec = AttributeSpec(attribute, tuple(objectives), tuple(targets))
        overrides = {attribute: bucketing} if bucketing is not None else None
        return self.build_many(source, [spec], bucketings=overrides)[attribute]

    def build_profile(
        self,
        source: DataSource,
        attribute: str,
        objective: Condition,
        *,
        presumptive: Condition | None = None,
        bucketing: Bucketing | None = None,
        label: str | None = None,
    ) -> BucketProfile:
        """One confidence/support profile (optionally with a §4.3 conjunct).

        With a ``presumptive`` conjunct the per-bucket population is
        restricted to tuples meeting it chunk-side (support stays measured
        against the full source size), matching
        :meth:`BucketProfile.from_relation` exactly.
        """
        if presumptive is None:
            counts = self.build_counts(
                source, attribute, objectives=[objective], bucketing=bucketing
            )
            return counts.profile(objective, label=label)
        return self.build_presumptive_profiles(
            source,
            attribute,
            objective,
            [presumptive],
            bucketing=bucketing,
            label=label,
        )[presumptive]

    def build_profiles(
        self,
        source: DataSource,
        attribute: str,
        objectives: Sequence[Condition],
        bucketing: Bucketing | None = None,
    ) -> dict[Condition, BucketProfile]:
        """Profiles for many objectives of one attribute from a single scan."""
        counts = self.build_counts(
            source, attribute, objectives=objectives, bucketing=bucketing
        )
        return {objective: counts.profile(objective) for objective in objectives}

    def build_average_profile(
        self,
        source: DataSource,
        attribute: str,
        target: str,
        bucketing: Bucketing | None = None,
    ) -> BucketProfile:
        """The §5 average-operator profile of ``target`` grouped by ``attribute``."""
        counts = self.build_counts(
            source, attribute, targets=[target], bucketing=bucketing
        )
        return counts.average_profile(target)

    def build_presumptive_profiles(
        self,
        source: DataSource,
        attribute: str,
        objective: Condition,
        presumptives: Sequence[Condition],
        bucketing: Bucketing | None = None,
        label: str | None = None,
    ) -> dict[Condition, BucketProfile]:
        """§4.3 profiles for *every* candidate conjunct in one counting scan.

        The §4.3 reduction turns a presumptive conjunct ``C1`` into a pure
        change of counted quantities — ``u_i`` counts the bucket's tuples
        meeting ``C1`` and ``v_i`` those meeting ``C1 ∧ C2`` — so a whole
        catalog of candidate conjuncts is just more mask rows for the shared
        kernel: this method counts two mask rows (and one restricted-bounds
        row) per conjunct in a single scan of the source, instead of one
        dedicated scan per conjunct.  Support stays measured against the
        full source size, and each profile's value bounds come from the
        conjunct's own restricted population, exactly matching
        :meth:`BucketProfile.from_relation` with ``presumptive=``.
        """
        presumptives = list(presumptives)
        if not presumptives:
            return {}
        plan = ScanPlan()
        request_id = plan.add_presumptive(attribute, objective, presumptives)
        overrides = {attribute: bucketing} if bucketing is not None else None
        results = self.execute_plan(source, plan, bucketings=overrides)
        return results.presumptive_profiles(request_id, label=label)


