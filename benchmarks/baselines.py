"""Pre-fusion baselines that the benchmarks time against the shipped paths.

The library counts every out-of-core profile through one path, the
``ScanPlan`` fold of :class:`~repro.pipeline.ProfileBuilder`.  The
streaming-catalog benchmark still measures how far that path is ahead of
the configuration it replaced, so the replaced prefetch lives here,
outside the library, and is timed verbatim:

* one boundary-sampling scan (:meth:`ProfileBuilder.sample_bucketings`);
* one counting scan over ``source.chunks()``: per chunk, every objective
  mask is evaluated once, and each attribute is counted with
  :func:`~repro.bucketing.counting.count_value_chunk`.  The partials merge
  in chunk order.

The baseline plugs into the miner through ``OptimizedRuleMiner(builder=...)``,
so the solvers and the catalog assembly are the shipped ones.
"""

from __future__ import annotations

import numpy as np

from repro.bucketing.counting import ChunkCounts, count_value_chunk
from repro.core import MiningTask, OptimizedRuleMiner, RuleKind
from repro.core.rules import OptimizedRangeRule
from repro.exceptions import PipelineError
from repro.mining.catalog import CatalogEntry, RuleCatalog
from repro.pipeline import DataSource, PlanResults, ProfileBuilder, ScanPlan
from repro.relation.conditions import BooleanIs


class PreFusionProfileBuilder(ProfileBuilder):
    """A builder whose plans count through the pre-fusion two-scan prefetch.

    Only per-attribute bucket requests are supported: that is all the
    catalog prefetch asks for.  The fold is serial, as the pre-fusion
    ``streaming`` executor was.
    """

    def execute_plan(
        self,
        source: DataSource,
        plan: ScanPlan,
        bucketings=None,
        store=None,
    ) -> PlanResults:
        requests = list(plan.requests)
        if store is not None:
            raise PipelineError("the pre-fusion baseline has no store")
        if any(r.kind != "bucket" or r.num_buckets is not None for r in requests):
            raise PipelineError("the pre-fusion baseline counts bucket requests only")
        resolved = dict(bucketings or {})
        missing = [r.attribute for r in requests if r.attribute not in resolved]
        if missing:
            resolved.update(self.sample_bucketings(source, missing))

        totals = [
            ChunkCounts.zeros(
                resolved[r.attribute].num_buckets,
                num_masks=len(r.objectives),
                num_weights=len(r.targets),
            )
            for r in requests
        ]
        for chunk in source.chunks():
            columns: dict[str, np.ndarray] = {}
            masks: dict[object, np.ndarray] = {}
            stacks: dict[tuple, np.ndarray | None] = {}

            def column(name: str) -> np.ndarray:
                if name not in columns:
                    columns[name] = np.asarray(
                        chunk.numeric_column(name), dtype=np.float64
                    )
                return columns[name]

            def mask_stack(objectives: tuple) -> np.ndarray | None:
                if objectives not in stacks:
                    for objective in objectives:
                        if objective not in masks:
                            masks[objective] = np.asarray(
                                objective.mask(chunk), dtype=bool
                            )
                    stacks[objectives] = (
                        np.vstack([masks[o] for o in objectives])
                        if objectives
                        else None
                    )
                return stacks[objectives]

            for request, total in zip(requests, totals):
                weights = (
                    np.vstack([column(t) for t in request.targets])
                    if request.targets
                    else None
                )
                total.merge(
                    count_value_chunk(
                        column(request.attribute),
                        resolved[request.attribute].cuts,
                        masks=mask_stack(request.objectives),
                        weights=weights,
                    )
                )
        return PlanResults(
            requests, totals, [(resolved[r.attribute],) for r in requests]
        )


def mine_catalog_pre_fusion(
    source: DataSource,
    num_buckets: int,
    rng: np.random.Generator,
    min_support: float = 0.10,
    min_confidence: float = 0.50,
) -> RuleCatalog:
    """The confidence/support catalog of ``mine_rule_catalog``, pre-fusion.

    Draws the builder seed from ``rng`` exactly as the miner does for a
    streaming source, so with the same seeded generator the sampled
    boundaries, and hence the rules, equal the shipped catalog's.
    """
    builder = PreFusionProfileBuilder(
        num_buckets=num_buckets,
        executor="streaming",
        seed=int(rng.integers(0, 2**32)),
    )
    miner = OptimizedRuleMiner(
        source, num_buckets=num_buckets, rng=rng, builder=builder
    )
    kinds = (RuleKind.OPTIMIZED_CONFIDENCE, RuleKind.OPTIMIZED_SUPPORT)
    tasks = [
        MiningTask(
            attribute=numeric,
            objective=BooleanIs(boolean, True),
            kind=kind,
            threshold=(
                min_support if kind is RuleKind.OPTIMIZED_CONFIDENCE else min_confidence
            ),
        )
        for boolean in miner.schema.boolean_names()
        for numeric in miner.schema.numeric_names()
        for kind in kinds
    ]
    entries = [
        CatalogEntry(
            rule=rule,
            base_rate=miner.objective_base_rate(task.attribute, rule.objective),
        )
        for task, rule in zip(tasks, miner.mine_many(tasks))
        if isinstance(rule, OptimizedRangeRule)
    ]
    first = tasks[0]
    return RuleCatalog(
        entries=tuple(entries),
        num_pairs=len(tasks) // len(kinds),
        num_tuples=int(miner.profile_for(first.attribute, first.objective).total),
    )
