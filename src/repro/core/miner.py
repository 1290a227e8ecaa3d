"""High-level facade: mine optimized rules directly from a relation.

:class:`OptimizedRuleMiner` ties the pieces together the way the paper's
system does end to end:

1. bucket the chosen numeric attribute (by default with the randomized
   almost-equi-depth bucketizer of Algorithm 3.1, §3);
2. count the per-bucket tuple totals ``u_i`` and objective matches ``v_i``;
3. run the linear-time optimizers of §4 (or the §5 average-operator
   variants);
4. instantiate the winning bucket range into a concrete value range and
   return a printable rule object.

Batch mining
------------
The "all combinations of hundreds of numeric and Boolean attributes"
scenario of §1.3 is served by the batched API:

* :class:`MiningTask` names one unit of work — an attribute, an objective,
  a rule kind, and an optional per-task threshold;
* :meth:`OptimizedRuleMiner.solve_many` resolves a catalog of tasks to raw
  :class:`~repro.core.rules.RangeSelection` results;
* :meth:`OptimizedRuleMiner.mine_many` resolves them to presentation rule
  objects.

The batch path shares everything shareable: each attribute is bucketed and
assigned to buckets exactly once (the assignment, bucket sizes, and
per-bucket data bounds are cached), each objective condition is evaluated
into a tuple mask exactly once (cached across attributes), and each profile
is a cheap ``np.bincount`` over the cached assignment.  Solvers run on the
array-native fast path by default (``engine="fast"``); pass
``engine="reference"`` to use the object-based oracle implementations.

Parity guarantee: the batch path builds profiles from the same
``searchsorted`` / ``bincount`` primitives as the single-rule path, and the
fast solvers evaluate the same floating-point comparisons as the reference
ones, so ``mine_many`` returns rules with the same ``(start, end,
support_count, objective_value)`` as calling the single-rule methods in a
loop — ``tests/core/test_fastpath.py`` and ``tests/core/test_miner.py``
assert this equivalence, the latter for the stacked ``solve_many`` too.

The miner caches bucketings and profiles keyed by the attribute and the
objective so that mining many rules over the same relation does not repeat
the bucketing scans, whichever entry point is used.

Data sources
------------
The miner accepts either an in-memory :class:`~repro.relation.Relation` or
any :class:`~repro.pipeline.DataSource` (``RelationSource``,
``ChunkedSource``, ``CSVSource``).  In-memory data keeps the cached
assignment/mask fast path above.  A streaming source routes profile
construction through :class:`~repro.pipeline.ProfileBuilder` instead — the
batch entry points compile a whole task catalog (including every §4.3
presumptive-conjunct group) into **one**
:class:`~repro.pipeline.ScanPlan`, so all needed profiles come from a
single physical scan of the data and the §1.3 catalog runs out-of-core
without ever materializing the relation.  With a
:class:`~repro.store.ProfileStore` (``store=``) even that scan disappears
for repeated runs: the prefetched plan is persisted to disk and a matching
snapshot serves every profile with zero physical scans (append-only grown
sources count only their tail).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.bucketing.base import Bucketing, Bucketizer
from repro.bucketing.equidepth_sample import SampledEquiDepthBucketizer
from repro.core.average import (
    maximum_average_range,
    maximum_average_rule,
    maximum_support_average_rule,
    maximum_support_range,
)
from repro.core.fastpath import fast_maximize_ratio_many, fast_maximize_support_many
from repro.core.optimized_confidence import solve_optimized_confidence
from repro.core.optimized_support import solve_optimized_support
from repro.core.profile import BucketProfile
from repro.core.rules import (
    OptimizedAverageRule,
    OptimizedRangeRule,
    RangeSelection,
    RuleKind,
)
from repro.core.validation import validate_fraction, validate_threshold
from repro.exceptions import OptimizationError, ProfileError, SchemaError
from repro.relation.conditions import BooleanIs, Condition
from repro.relation.relation import Relation
from repro.relation.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from repro.pipeline.builder import ProfileBuilder
    from repro.pipeline.sources import DataSource
    from repro.store import ProfileStore

__all__ = ["OptimizedRuleMiner", "MiningSettings", "MiningTask"]

_ENGINES = ("fast", "reference")

# Per kind, the threshold check its per-task solver runs (same name, same
# typed error).
_THRESHOLD_CHECKS = {
    RuleKind.OPTIMIZED_CONFIDENCE: lambda value: validate_fraction(
        "min_support", value, allow_zero=True
    ),
    RuleKind.OPTIMIZED_SUPPORT: lambda value: validate_fraction(
        "min_confidence", value
    ),
    RuleKind.MAXIMUM_AVERAGE: lambda value: validate_fraction(
        "min_support", value, allow_zero=True
    ),
    RuleKind.MAXIMUM_SUPPORT_AVERAGE: lambda value: validate_threshold(
        "min_average", value
    ),
}

# Kinds the fast engine solves as stacks.  The §5 average kinds stay per
# task: their real-valued sums fall outside the stacked solvers' exact
# integer-product envelope.
_STACKED_KINDS = (RuleKind.OPTIMIZED_CONFIDENCE, RuleKind.OPTIMIZED_SUPPORT)


@dataclass(frozen=True)
class MiningSettings:
    """Default thresholds used by bulk mining helpers."""

    min_support: float = 0.10
    min_confidence: float = 0.50
    num_buckets: int = 1000


@dataclass(frozen=True)
class MiningTask:
    """One unit of batch mining work.

    Attributes
    ----------
    attribute:
        Numeric attribute whose range is optimized (the grouping attribute
        for the §5 average kinds).
    objective:
        Objective condition (or Boolean attribute name) for confidence and
        support rules; the numeric *target* attribute name for the average
        kinds.
    kind:
        Which optimization to run.
    threshold:
        Per-task threshold — minimum support for confidence/max-average
        rules, minimum confidence for support rules, minimum average for
        max-support-average rules.  ``None`` falls back to the
        :class:`MiningSettings` defaults (required for max-support-average,
        which has no settings default).
    presumptive:
        Optional extra conjunct ``C1`` for generalized rules (§4.3); only
        valid for confidence and support kinds.
    """

    attribute: str
    objective: Condition | str
    kind: RuleKind = RuleKind.OPTIMIZED_CONFIDENCE
    threshold: float | None = None
    presumptive: Condition | None = None


class OptimizedRuleMiner:
    """Mine optimized association rules for numeric attributes of a relation.

    Parameters
    ----------
    relation:
        The data to mine: an in-memory :class:`Relation` or any
        :class:`~repro.pipeline.DataSource`.  In-memory data (including an
        ``in_memory`` source such as :class:`~repro.pipeline.RelationSource`)
        uses the cached-assignment fast path; streaming sources build
        profiles through the two-scan pipeline.
    num_buckets:
        Number of buckets to aim for on each numeric attribute.
    bucketizer:
        Strategy that builds the buckets for in-memory data; defaults to the
        paper's randomized sampling bucketizer (Algorithm 3.1).  Streaming
        sources always sample boundaries with the pipeline's reservoir pass.
    rng:
        Random generator governing the bucket-boundary randomness so that
        experiments can be reproduced exactly: forwarded to the bucketizer
        in-memory, and used to seed the pipeline's reservoir sampling for
        streaming sources.
    engine:
        Solver engine: ``"fast"`` (array-native, default) or ``"reference"``
        (object-based oracle).  Both return identical rules.
    executor:
        Counting executor for streaming sources (``"serial"``,
        ``"streaming"``, or ``"multiprocessing"``); ignored for in-memory
        data.
    kernel_tier:
        ``"auto"``/``"numpy"`` kernel tier name for the streaming counting
        passes (default: the ``REPRO_KERNEL_TIER`` environment variable,
        then ``"auto"``); both select the NumPy kernel.  Ignored when
        ``builder`` is supplied and for in-memory data.
    builder:
        Optional pre-configured :class:`~repro.pipeline.ProfileBuilder`
        (overrides ``executor``; its ``num_buckets`` governs streaming
        builds).
    store:
        Optional :class:`~repro.store.ProfileStore`.  The batch entry
        points (:meth:`solve_many` / :meth:`mine_many`) over a streaming
        source then route their one-scan prefetch through the store: a
        matching snapshot serves every profile with **zero** physical
        source scans, an append-only grown source counts only its tail,
        and a fresh source executes once and is persisted for next time.
    """

    def __init__(
        self,
        relation: Relation | DataSource,
        num_buckets: int = 1000,
        bucketizer: Bucketizer | None = None,
        rng: np.random.Generator | None = None,
        engine: str = "fast",
        executor: str = "serial",
        builder: ProfileBuilder | None = None,
        store: "ProfileStore | None" = None,
        kernel_tier: str | None = None,
    ) -> None:
        if num_buckets <= 0:
            raise OptimizationError("num_buckets must be positive")
        if engine not in _ENGINES:
            raise OptimizationError(
                f"unknown solver engine {engine!r}; use 'fast' or 'reference'"
            )
        # Imported here: repro.pipeline builds on repro.core profiles.
        from repro.pipeline.builder import ProfileBuilder
        from repro.pipeline.sources import DataSource

        if isinstance(relation, DataSource):
            self._source: DataSource | None = relation
            self._relation = relation.materialize() if relation.in_memory else None
        else:
            self._source = None
            self._relation = relation
        self._rng = rng if rng is not None else np.random.default_rng()
        if builder is not None:
            self._builder = builder
        else:
            # For streaming sources the boundary-sampling seed derives from
            # the miner's rng, so a seeded generator reproduces the sampled
            # bucket boundaries exactly (mirroring the in-memory bucketizer).
            seed = (
                int(self._rng.integers(0, 2**32))
                if self._relation is None
                else 0
            )
            self._builder = ProfileBuilder(
                num_buckets=num_buckets,
                executor=executor,
                seed=seed,
                kernel_tier=kernel_tier,
            )
        self._store = store
        self._num_buckets = int(num_buckets)
        self._bucketizer = bucketizer if bucketizer is not None else SampledEquiDepthBucketizer()
        self._engine = engine
        self._bucketings: dict[str, Bucketing] = {}
        # Profiles and masks are keyed by the (frozen, hashable) condition
        # objects themselves, not their string forms, so conditions that
        # render identically (e.g. bounds differing past %g precision) never
        # collide.
        self._profiles: dict[tuple[object, ...], BucketProfile] = {}
        # Batch-path caches: one bucket-assignment pass per attribute and one
        # mask evaluation per objective condition, shared across attributes.
        self._assignments: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        self._masks: dict[Condition, np.ndarray] = {}
        # One re-entrant lock guards every cache above plus the shared rng.
        # Concurrent solves serialize *cache population* only: the first
        # thread fills the caches in exact serial order (so the rng draw
        # order — and therefore every sampled bucket boundary — matches a
        # single-threaded run), later threads find everything cached and
        # trigger zero additional scans.  The solvers themselves are pure
        # functions of immutable profiles and run outside the lock.
        self._cache_lock = threading.RLock()

    # -- plumbing -------------------------------------------------------------

    @property
    def relation(self) -> Relation:
        """The relation being mined (in-memory data only).

        Raises
        ------
        OptimizationError
            When the miner was built over a streaming source, which is never
            materialized.
        """
        if self._relation is None:
            raise OptimizationError(
                "the miner was built over a streaming source; "
                "no in-memory relation is available"
            )
        return self._relation

    @property
    def source(self) -> DataSource | None:
        """The data source this miner was built over (``None`` for a bare relation)."""
        return self._source

    @property
    def schema(self) -> Schema:
        """Schema of the data being mined (works for every data shape)."""
        if self._relation is not None:
            return self._relation.schema
        assert self._source is not None
        return self._source.schema

    @property
    def streaming(self) -> bool:
        """Whether profiles are built through the streaming pipeline."""
        return self._relation is None

    @property
    def num_buckets(self) -> int:
        """Requested number of buckets per numeric attribute."""
        return self._num_buckets

    @property
    def engine(self) -> str:
        """Solver engine in use (``"fast"`` or ``"reference"``)."""
        return self._engine

    def bucketing_for(self, attribute: str) -> Bucketing:
        """The (cached) bucketing of a numeric attribute."""
        with self._cache_lock:
            if attribute not in self._bucketings:
                schema_attribute = self.schema.attribute(attribute)
                if not schema_attribute.is_numeric:
                    raise SchemaError(f"attribute {attribute!r} is not numeric")
                if self._relation is None:
                    assert self._source is not None
                    self._bucketings.update(
                        self._builder.sample_bucketings(self._source, [attribute])
                    )
                else:
                    values = self._relation.numeric_column(attribute)
                    requested = min(self._num_buckets, int(np.unique(values).size))
                    requested = max(requested, 1)
                    self._bucketings[attribute] = self._bucketizer.build(
                        values, requested, rng=self._rng
                    )
            return self._bucketings[attribute]

    def condition_mask(self, condition: Condition) -> np.ndarray:
        """The (cached) Boolean tuple mask of an objective condition.

        Conditions are frozen dataclasses, so the cache is keyed by the
        condition itself (structural equality) — two conditions that merely
        render to the same string never collide.  In-memory data only: a
        streaming source has no whole-relation mask.
        """
        with self._cache_lock:
            if condition not in self._masks:
                self._masks[condition] = np.asarray(
                    condition.mask(self.relation), dtype=bool
                )
            return self._masks[condition]

    def _assignment_for(
        self, attribute: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One-scan bucket assignment of an attribute, cached.

        Returns ``(indices, sizes, lows, highs, keep)`` where ``keep`` marks
        the non-empty buckets (profiles drop empty buckets, as the solvers
        require ``u_i >= 1``).
        """
        with self._cache_lock:
            if attribute not in self._assignments:
                bucketing = self.bucketing_for(attribute)
                values = np.asarray(
                    self._relation.numeric_column(attribute), dtype=np.float64
                )
                indices = bucketing.assign(values)
                sizes = np.bincount(indices, minlength=bucketing.num_buckets).astype(
                    np.int64
                )
                lows, highs = bucketing.data_bounds(values)
                keep = sizes > 0
                self._assignments[attribute] = (indices, sizes, lows, highs, keep)
            return self._assignments[attribute]

    def profile_for(
        self,
        attribute: str,
        objective: Condition,
        presumptive: Condition | None = None,
    ) -> BucketProfile:
        """The (cached) bucket profile of an attribute/objective pair."""
        key = (attribute, objective, presumptive)
        with self._cache_lock:
            if key not in self._profiles:
                if self._relation is None:
                    assert self._source is not None
                    self._profiles[key] = self._builder.build_profile(
                        self._source,
                        attribute,
                        objective,
                        presumptive=presumptive,
                        bucketing=self.bucketing_for(attribute),
                    )
                elif presumptive is not None:
                    self._profiles[key] = self._presumptive_profile_from_caches(
                        attribute, objective, presumptive
                    )
                else:
                    indices, sizes, lows, highs, keep = self._assignment_for(attribute)
                    mask = self.condition_mask(objective)
                    matched = np.bincount(
                        indices[mask], minlength=sizes.shape[0]
                    ).astype(np.int64)
                    self._profiles[key] = BucketProfile(
                        attribute=attribute,
                        objective_label=str(objective),
                        sizes=sizes[keep].astype(np.float64),
                        values=matched[keep].astype(np.float64),
                        lows=lows[keep],
                        highs=highs[keep],
                        total=float(self._relation.num_tuples),
                    )
            return self._profiles[key]

    def _presumptive_profile_from_caches(
        self,
        attribute: str,
        objective: Condition,
        presumptive: Condition,
    ) -> BucketProfile:
        """§4.3 profile from the shared in-memory caches (no re-assignment).

        The §4.3 reduction only changes the counted quantities — ``u_i``
        counts the bucket's tuples meeting the conjunct and ``v_i`` those
        also meeting the objective — so the cached bucket assignment and the
        cached condition masks answer both with two ``np.bincount`` calls.
        Only the restricted data bounds (the value range the rule is
        instantiated from) need the conjunct's own values.  Bit-identical to
        :meth:`BucketProfile.from_relation` with ``presumptive=``.
        """
        indices, sizes, _, _, _ = self._assignment_for(attribute)
        base = self.condition_mask(presumptive)
        restricted = np.bincount(
            indices[base], minlength=sizes.shape[0]
        ).astype(np.int64)
        keep = restricted > 0
        if not np.any(keep):
            raise ProfileError(
                "no tuple satisfies the presumptive conjunct; cannot build a profile"
            )
        matched = np.bincount(
            indices[base & self.condition_mask(objective)],
            minlength=sizes.shape[0],
        ).astype(np.int64)
        values = np.asarray(
            self._relation.numeric_column(attribute), dtype=np.float64
        )
        lows, highs = self.bucketing_for(attribute).data_bounds(values[base])
        return BucketProfile(
            attribute=attribute,
            objective_label=str(objective),
            sizes=restricted[keep].astype(np.float64),
            values=matched[keep].astype(np.float64),
            lows=lows[keep],
            highs=highs[keep],
            total=float(self._relation.num_tuples),
        )

    def average_profile_for(self, attribute: str, target: str) -> BucketProfile:
        """The (cached) average-operator profile of a grouping/target pair."""
        key = (attribute, ("avg", target), None)
        with self._cache_lock:
            if key not in self._profiles:
                if self._relation is None:
                    assert self._source is not None
                    self._profiles[key] = self._builder.build_average_profile(
                        self._source,
                        attribute,
                        target,
                        bucketing=self.bucketing_for(attribute),
                    )
                    return self._profiles[key]
                indices, sizes, lows, highs, keep = self._assignment_for(attribute)
                weights = np.asarray(
                    self._relation.numeric_column(target), dtype=np.float64
                )
                sums = np.bincount(
                    indices, weights=weights, minlength=sizes.shape[0]
                ).astype(np.float64)
                self._profiles[key] = BucketProfile(
                    attribute=attribute,
                    objective_label=f"avg({target})",
                    sizes=sizes[keep].astype(np.float64),
                    values=sums[keep],
                    lows=lows[keep],
                    highs=highs[keep],
                    total=float(self._relation.num_tuples),
                )
            return self._profiles[key]

    @staticmethod
    def _as_condition(objective: Condition | str) -> Condition:
        """Allow objectives to be given as a Boolean attribute name."""
        if isinstance(objective, str):
            return BooleanIs(objective, True)
        return objective

    def objective_base_rate(self, attribute: str, objective: Condition | str) -> float:
        """Overall fraction of tuples meeting ``objective`` (the lift baseline).

        Computed from the (cached) profile of ``attribute`` — the summed
        per-bucket objective counts over the total — so it is exact, works
        identically for in-memory and streaming data, and is free once the
        pair has been mined.
        """
        profile = self.profile_for(attribute, self._as_condition(objective))
        return float(profile.values.sum() / profile.total)

    # -- single-rule mining -------------------------------------------------------

    def optimized_confidence_rule(
        self,
        attribute: str,
        objective: Condition | str,
        min_support: float,
        presumptive: Condition | None = None,
    ) -> OptimizedRangeRule | None:
        """The optimized-confidence rule for one attribute/objective pair.

        Returns ``None`` when no range of the attribute reaches the minimum
        support (for example because the presumptive conjunct is too rare).
        """
        objective = self._as_condition(objective)
        profile = self.profile_for(attribute, objective, presumptive)
        selection = solve_optimized_confidence(
            profile, min_support, engine=self._engine
        )
        if selection is None:
            return None
        low, high = profile.range_bounds(selection.start, selection.end)
        return OptimizedRangeRule(
            attribute=attribute,
            objective=objective,
            low=low,
            high=high,
            selection=selection,
            kind=RuleKind.OPTIMIZED_CONFIDENCE,
            threshold=float(min_support),
            presumptive=presumptive,
        )

    def optimized_support_rule(
        self,
        attribute: str,
        objective: Condition | str,
        min_confidence: float,
        presumptive: Condition | None = None,
    ) -> OptimizedRangeRule | None:
        """The optimized-support rule for one attribute/objective pair.

        Returns ``None`` when no range of the attribute reaches the minimum
        confidence.
        """
        objective = self._as_condition(objective)
        profile = self.profile_for(attribute, objective, presumptive)
        selection = solve_optimized_support(
            profile, min_confidence, engine=self._engine
        )
        if selection is None:
            return None
        low, high = profile.range_bounds(selection.start, selection.end)
        return OptimizedRangeRule(
            attribute=attribute,
            objective=objective,
            low=low,
            high=high,
            selection=selection,
            kind=RuleKind.OPTIMIZED_SUPPORT,
            threshold=float(min_confidence),
            presumptive=presumptive,
        )

    def maximum_average_rule(
        self, attribute: str, target: str, min_support: float
    ) -> OptimizedAverageRule | None:
        """§5 maximum-average range of ``target`` grouped by ``attribute``."""
        profile = self.average_profile_for(attribute, target)
        return maximum_average_rule(profile, target, min_support, engine=self._engine)

    def maximum_support_average_rule(
        self, attribute: str, target: str, min_average: float
    ) -> OptimizedAverageRule | None:
        """§5 maximum-support range of ``attribute`` with an average floor on ``target``."""
        profile = self.average_profile_for(attribute, target)
        return maximum_support_average_rule(
            profile, target, min_average, engine=self._engine
        )

    # -- batch mining --------------------------------------------------------------

    def _task_threshold(self, task: MiningTask, settings: MiningSettings) -> float:
        """Resolve a task's threshold against the settings defaults."""
        if task.threshold is not None:
            return float(task.threshold)
        if task.kind in (RuleKind.OPTIMIZED_CONFIDENCE, RuleKind.MAXIMUM_AVERAGE):
            return settings.min_support
        if task.kind is RuleKind.OPTIMIZED_SUPPORT:
            return settings.min_confidence
        raise OptimizationError(
            "maximum-support-average tasks need an explicit threshold "
            "(there is no settings default for the minimum average)"
        )

    def _task_profile(self, task: MiningTask) -> BucketProfile:
        """The profile a task operates on (cached through the batch caches)."""
        if task.kind in (RuleKind.MAXIMUM_AVERAGE, RuleKind.MAXIMUM_SUPPORT_AVERAGE):
            if not isinstance(task.objective, str):
                raise OptimizationError(
                    "average-operator tasks name their numeric target attribute"
                )
            if task.presumptive is not None:
                raise OptimizationError(
                    "presumptive conjuncts apply only to confidence/support tasks"
                )
            return self.average_profile_for(task.attribute, task.objective)
        objective = self._as_condition(task.objective)
        return self.profile_for(task.attribute, objective, task.presumptive)

    def _gather_prefetch_requests(
        self, tasks: Sequence[MiningTask]
    ) -> tuple[dict, dict]:
        """Group a task catalog into uncached per-attribute specs and §4.3 groups."""
        from repro.pipeline.builder import AttributeSpec

        specs: dict[str, AttributeSpec] = {}
        conjunct_groups: dict[tuple[str, Condition], list[Condition]] = {}
        for task in tasks:
            average = task.kind in (
                RuleKind.MAXIMUM_AVERAGE,
                RuleKind.MAXIMUM_SUPPORT_AVERAGE,
            )
            if average:
                if not isinstance(task.objective, str) or task.presumptive is not None:
                    continue  # _task_profile reports the error with context
                key = (task.attribute, ("avg", task.objective), None)
                addition = AttributeSpec(task.attribute, targets=(task.objective,))
            else:
                objective = self._as_condition(task.objective)
                if task.presumptive is not None:
                    if (task.attribute, objective, task.presumptive) in self._profiles:
                        continue
                    group = conjunct_groups.setdefault(
                        (task.attribute, objective), []
                    )
                    if task.presumptive not in group:
                        group.append(task.presumptive)
                    continue
                key = (task.attribute, objective, None)
                addition = AttributeSpec(task.attribute, objectives=(objective,))
            if key in self._profiles:
                continue
            if task.attribute in specs:
                specs[task.attribute] = specs[task.attribute].merged_with(addition)
            else:
                specs[task.attribute] = addition
        return specs, conjunct_groups

    def _prefetch_streaming_profiles(self, tasks: Sequence[MiningTask]) -> None:
        """Build every uncached streaming profile a task catalog needs in bulk.

        The whole catalog — plain per-attribute objectives, §5 average
        targets, *and* every §4.3 presumptive-conjunct group — compiles into
        **one** :class:`~repro.pipeline.ScanPlan`, so a single fused fold
        over the source (one physical scan, including the boundary sampling
        of every uncached attribute) produces every profile the tasks need.
        """
        if self._relation is not None:
            return
        assert self._source is not None
        specs, conjunct_groups = self._gather_prefetch_requests(tasks)
        if not specs and not conjunct_groups:
            return
        from repro.pipeline.builder import ScanPlan

        plan = ScanPlan()
        bucket_ids = {
            spec.attribute: plan.add_bucket(
                spec.attribute, objectives=spec.objectives, targets=spec.targets
            )
            for spec in specs.values()
        }
        conjunct_ids = {
            (attribute, objective): plan.add_presumptive(
                attribute, objective, conjuncts
            )
            for (attribute, objective), conjuncts in conjunct_groups.items()
        }
        attributes = set(bucket_ids) | {
            attribute for attribute, _ in conjunct_ids
        }
        overrides = {
            attribute: self._bucketings[attribute]
            for attribute in attributes
            if attribute in self._bucketings
        }
        # A store snapshot fixes its own boundaries, so it only serves a
        # prefetch with no locally cached bucketings to honor (the common
        # case: a fresh miner running a whole catalog).
        results = self._builder.execute_plan(
            self._source,
            plan,
            bucketings=overrides,
            store=self._store if not overrides else None,
        )
        for attribute, request_id in bucket_ids.items():
            counts = results.counts(request_id)
            self._bucketings.setdefault(attribute, counts.bucketing)
            for objective in counts.conditional:
                self._profiles[(attribute, objective, None)] = counts.profile(objective)
            for target in counts.sums:
                self._profiles[(attribute, ("avg", target), None)] = (
                    counts.average_profile(target)
                )
        for (attribute, objective), request_id in conjunct_ids.items():
            self._bucketings.setdefault(attribute, results.bucketing(request_id))
            for conjunct, profile in results.presumptive_profiles(
                request_id
            ).items():
                self._profiles[(attribute, objective, conjunct)] = profile

    def solve_many(
        self,
        tasks: Iterable[MiningTask],
        settings: MiningSettings | None = None,
    ) -> list[RangeSelection | None]:
        """Resolve a catalog of tasks to raw bucket-range selections.

        Bucketings, bucket assignments, condition masks, and profiles are
        shared across the whole catalog; the result list is parallel to the
        task order, with ``None`` for infeasible tasks.  Over a streaming
        source the whole catalog's profiles are prefetched in one fused
        scan of the data before any solver runs.

        With ``engine="fast"`` the confidence and support tasks are grouped
        by kind and bucket count and each group is answered by one stacked
        solver call (:func:`~repro.core.fastpath.fast_maximize_ratio_many` /
        :func:`~repro.core.fastpath.fast_maximize_support_many`), with the
        same selections as solving task by task; the §5 average kinds and
        ``engine="reference"`` solve task by task.

        Safe to call from several threads at once: cache population happens
        under the miner's lock in task order (so the first caller fills the
        caches exactly as a single-threaded run would — same rng draws, same
        boundaries — and concurrent identical catalogs trigger **one**
        physical scan, not one per thread), while the pure solvers run
        outside the lock on the immutable profiles.
        """
        settings = settings if settings is not None else MiningSettings()
        tasks = list(tasks)
        with self._cache_lock:
            self._prefetch_streaming_profiles(tasks)
            profiles = [self._task_profile(task) for task in tasks]
        # Every threshold is checked in task order before anything is solved,
        # so a bad task raises exactly the typed error its solver would.
        thresholds = [
            _THRESHOLD_CHECKS[task.kind](self._task_threshold(task, settings))
            for task in tasks
        ]
        selections: list[RangeSelection | None] = [None] * len(tasks)
        stacks: dict[tuple[RuleKind, int], list[int]] = {}
        for index, (task, profile, threshold) in enumerate(
            zip(tasks, profiles, thresholds)
        ):
            if self._engine == "fast" and task.kind in _STACKED_KINDS:
                stacks.setdefault((task.kind, profile.num_buckets), []).append(index)
            elif task.kind is RuleKind.OPTIMIZED_CONFIDENCE:
                selections[index] = solve_optimized_confidence(
                    profile, threshold, engine=self._engine
                )
            elif task.kind is RuleKind.OPTIMIZED_SUPPORT:
                selections[index] = solve_optimized_support(
                    profile, threshold, engine=self._engine
                )
            elif task.kind is RuleKind.MAXIMUM_AVERAGE:
                selections[index] = maximum_average_range(
                    profile, threshold, engine=self._engine
                )
            else:
                selections[index] = maximum_support_range(
                    profile, threshold, engine=self._engine
                )
        # The fast engine answers each same-kind, same-width stack of
        # confidence/support profiles in one stacked call, with the same
        # thresholds (support counts are ``min_support * total`` exactly as
        # ``solve_optimized_confidence`` computes them) and the same results.
        for (kind, _), indices in stacks.items():
            sizes = np.stack([profiles[index].sizes for index in indices])
            values = np.stack([profiles[index].values for index in indices])
            totals = np.array([profiles[index].total for index in indices])
            limits = np.array([thresholds[index] for index in indices])
            if kind is RuleKind.OPTIMIZED_CONFIDENCE:
                solved = fast_maximize_ratio_many(
                    sizes, values, limits * totals, total=totals
                )
            else:
                solved = fast_maximize_support_many(
                    sizes, values, limits, total=totals
                )
            for index, selection in zip(indices, solved):
                selections[index] = selection
        return selections

    def mine_many(
        self,
        tasks: Iterable[MiningTask],
        settings: MiningSettings | None = None,
    ) -> list[OptimizedRangeRule | OptimizedAverageRule | None]:
        """Resolve a catalog of tasks to presentation rule objects.

        The result list is parallel to the task order; infeasible tasks map
        to ``None``.  Equivalent to calling the single-rule methods in a
        loop, but with all counting shared (see the module docstring).
        """
        settings = settings if settings is not None else MiningSettings()
        tasks = list(tasks)
        selections = self.solve_many(tasks, settings)
        rules: list[OptimizedRangeRule | OptimizedAverageRule | None] = []
        for task, selection in zip(tasks, selections):
            if selection is None:
                rules.append(None)
                continue
            profile = self._task_profile(task)
            threshold = self._task_threshold(task, settings)
            low, high = profile.range_bounds(selection.start, selection.end)
            if task.kind in (RuleKind.MAXIMUM_AVERAGE, RuleKind.MAXIMUM_SUPPORT_AVERAGE):
                rules.append(
                    OptimizedAverageRule(
                        attribute=task.attribute,
                        target=str(task.objective),
                        low=low,
                        high=high,
                        selection=selection,
                        kind=task.kind,
                        threshold=threshold,
                    )
                )
            else:
                rules.append(
                    OptimizedRangeRule(
                        attribute=task.attribute,
                        objective=self._as_condition(task.objective),
                        low=low,
                        high=high,
                        selection=selection,
                        kind=task.kind,
                        threshold=threshold,
                        presumptive=task.presumptive,
                    )
                )
        return rules

    # -- bulk mining ---------------------------------------------------------------

    def mine_all_pairs(
        self,
        settings: MiningSettings | None = None,
        numeric_attributes: list[str] | None = None,
        objectives: list[Condition | str] | None = None,
        kind: RuleKind = RuleKind.OPTIMIZED_CONFIDENCE,
    ) -> list[OptimizedRangeRule]:
        """Mine one optimized rule per (numeric attribute, objective) pair.

        This is the "complete set of optimized rules for all combinations of
        hundreds of numeric and Boolean attributes" use case of §1.3,
        expressed over the batched :meth:`mine_many` engine.  Pairs with no
        feasible range are silently skipped.
        """
        settings = settings if settings is not None else MiningSettings()
        if kind not in (RuleKind.OPTIMIZED_CONFIDENCE, RuleKind.OPTIMIZED_SUPPORT):
            raise OptimizationError(
                f"mine_all_pairs supports confidence/support rules, got {kind}"
            )
        schema = self.schema
        if numeric_attributes is None:
            numeric_attributes = schema.numeric_names()
        if objectives is None:
            objectives = list(schema.boolean_names())

        tasks: list[MiningTask] = []
        for attribute in numeric_attributes:
            for objective in objectives:
                condition = self._as_condition(objective)
                if attribute in condition.attribute_names():
                    continue
                tasks.append(
                    MiningTask(attribute=attribute, objective=condition, kind=kind)
                )
        mined = self.mine_many(tasks, settings)
        return [rule for rule in mined if isinstance(rule, OptimizedRangeRule)]
