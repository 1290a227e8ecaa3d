"""All-combinations rule catalog.

§1.3 claims the efficiency of the algorithms "enables us to compute optimized
rules for all combinations of hundreds of numeric and Boolean attributes in a
reasonable time".  The catalog miner realizes that workflow: for every
(numeric attribute, Boolean objective) pair it mines both the optimized-
confidence and the optimized-support rule, collects them with their quality
measures, and ranks them so an analyst can skim the most interesting
interrelations first.

The catalog is expressed as a batch of :class:`repro.core.MiningTask` items
resolved by :meth:`OptimizedRuleMiner.mine_many`, so each numeric attribute
is bucketed and assigned once, each Boolean objective is evaluated once (and
its base rate read off the cached profile), and the solvers run on the
array-native fast path by default.

The catalog accepts any :class:`~repro.pipeline.DataSource` in place of the
relation: over a streaming source (e.g. a ``CSVSource``) the miner
prefetches every profile in one scan of the data, so the complete §1.3
workload runs out-of-core without ever materializing the relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.bucketing.base import Bucketizer
from repro.core.miner import MiningTask, OptimizedRuleMiner
from repro.core.rules import OptimizedRangeRule, RuleKind
from repro.exceptions import OptimizationError
from repro.pipeline.sources import DataSource
from repro.relation.conditions import BooleanIs, Condition
from repro.relation.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ProfileStore

__all__ = [
    "CatalogEntry",
    "RuleCatalog",
    "catalog_scan_plan",
    "mine_rule_catalog",
]


def catalog_scan_plan(schema):
    """The catalog plan (every numeric x Boolean pair) as one ScanPlan.

    Mirrors the fused prefetch of :func:`mine_rule_catalog`: one bucket
    request per numeric attribute carrying every Boolean objective — the
    profiles the confidence/support catalog solvers consume.  The bucket
    count rides on the *builder* (the miner's prefetch leaves per-request
    overrides unset), so the plan signature matches the snapshots
    ``store build`` / ``catalog --store`` create, and ``shard``, ``ingest``,
    and the service plane all interoperate with them.
    """
    from repro.pipeline.builder import ScanPlan
    from repro.relation.schema import AttributeKind

    numeric = [a.name for a in schema if a.kind == AttributeKind.NUMERIC]
    boolean = [a.name for a in schema if a.kind == AttributeKind.BOOLEAN]
    plan = ScanPlan()
    objectives = [BooleanIs(attribute, True) for attribute in boolean]
    for attribute in numeric:
        plan.add_bucket(attribute, objectives=objectives)
    return plan


@dataclass(frozen=True)
class CatalogEntry:
    """One mined rule together with its interestingness measures."""

    rule: OptimizedRangeRule
    base_rate: float

    @property
    def lift(self) -> float:
        """Confidence of the rule divided by the objective's base rate."""
        if self.base_rate == 0.0:
            return 0.0
        return self.rule.confidence / self.base_rate

    def as_row(self) -> dict[str, object]:
        """Flat dictionary representation, convenient for reporting."""
        return {
            "attribute": self.rule.attribute,
            "objective": str(self.rule.objective),
            "kind": str(self.rule.kind),
            "low": self.rule.low,
            "high": self.rule.high,
            "support": self.rule.support,
            "confidence": self.rule.confidence,
            "base_rate": self.base_rate,
            "lift": self.lift,
        }


@dataclass(frozen=True)
class RuleCatalog:
    """The result of an all-combinations mining run.

    ``num_tuples`` records the size of the mined data (read off the cached
    profiles), so out-of-core callers never need an extra counting scan.
    """

    entries: tuple[CatalogEntry, ...]
    num_pairs: int
    num_tuples: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def top(self, count: int = 10, by: str = "lift") -> list[CatalogEntry]:
        """The ``count`` best entries ordered by ``lift``, ``confidence`` or ``support``."""
        if by not in ("lift", "confidence", "support"):
            raise OptimizationError(
                f"unknown ranking measure {by!r}; use 'lift', 'confidence' or 'support'"
            )
        keyed = {
            "lift": lambda entry: entry.lift,
            "confidence": lambda entry: entry.rule.confidence,
            "support": lambda entry: entry.rule.support,
        }[by]
        return sorted(self.entries, key=keyed, reverse=True)[:count]

    def for_objective(self, objective_name: str) -> list[CatalogEntry]:
        """Entries whose objective mentions the given Boolean attribute."""
        return [
            entry
            for entry in self.entries
            if objective_name in entry.rule.objective.attribute_names()
        ]


def mine_rule_catalog(
    relation: Relation | DataSource,
    min_support: float = 0.10,
    min_confidence: float = 0.50,
    num_buckets: int = 200,
    numeric_attributes: list[str] | None = None,
    boolean_attributes: list[str] | None = None,
    bucketizer: Bucketizer | None = None,
    rng: np.random.Generator | None = None,
    kinds: tuple[RuleKind, ...] = (
        RuleKind.OPTIMIZED_CONFIDENCE,
        RuleKind.OPTIMIZED_SUPPORT,
    ),
    engine: str = "fast",
    executor: str = "serial",
    store: "ProfileStore | None" = None,
    kernel_tier: str | None = None,
) -> RuleCatalog:
    """Mine optimized rules for every (numeric, Boolean) attribute pair.

    Parameters
    ----------
    relation:
        Relation — or any :class:`~repro.pipeline.DataSource` — to mine.
    min_support:
        Support threshold for the optimized-confidence rules.
    min_confidence:
        Confidence threshold for the optimized-support rules.
    num_buckets:
        Buckets per numeric attribute.
    numeric_attributes / boolean_attributes:
        Optional restrictions of the attribute universes.
    kinds:
        Which rule kinds to mine per pair (defaults to both).
    engine:
        Solver engine forwarded to the miner (``"fast"`` or ``"reference"``).
    executor:
        Counting executor for streaming sources (``"serial"``,
        ``"streaming"``, or ``"multiprocessing"``); ignored for in-memory
        data.
    kernel_tier:
        ``"auto"``/``"numpy"`` kernel tier name for streaming counting
        (default: the ``REPRO_KERNEL_TIER`` environment variable, then
        ``"auto"``); both select the NumPy kernel.  Ignored for in-memory
        data.
    store:
        Optional :class:`~repro.store.ProfileStore`.  Re-mining the same
        catalog (same data, thresholds aside) then performs **zero**
        physical source scans — the whole profile prefetch is served from
        the stored snapshot — and a CSV grown at the tail counts only its
        new rows.  This is the cache-and-reuse discipline for running
        ``mine_rule_catalog`` in a loop over live data.
    """
    miner = OptimizedRuleMiner(
        relation,
        num_buckets=num_buckets,
        bucketizer=bucketizer,
        rng=rng,
        engine=engine,
        executor=executor,
        store=store,
        kernel_tier=kernel_tier,
    )
    schema = miner.schema
    numeric_names = (
        numeric_attributes if numeric_attributes is not None else schema.numeric_names()
    )
    boolean_names = (
        boolean_attributes if boolean_attributes is not None else schema.boolean_names()
    )
    for kind in kinds:
        if kind not in (RuleKind.OPTIMIZED_CONFIDENCE, RuleKind.OPTIMIZED_SUPPORT):
            raise OptimizationError(
                f"catalog mining supports confidence/support rules, got {kind}"
            )

    tasks: list[MiningTask] = []
    pairs = 0
    for boolean_name in boolean_names:
        objective = BooleanIs(boolean_name, True)
        for numeric_name in numeric_names:
            pairs += 1
            for kind in kinds:
                threshold = (
                    min_support if kind is RuleKind.OPTIMIZED_CONFIDENCE else min_confidence
                )
                tasks.append(
                    MiningTask(
                        attribute=numeric_name,
                        objective=objective,
                        kind=kind,
                        threshold=threshold,
                    )
                )

    rules = miner.mine_many(tasks)
    # Base rates come off the profiles the batch run just cached (summed
    # per-bucket objective counts over the total), so they cost nothing
    # extra and are identical for in-memory and streaming data.
    base_rate_cache: dict[Condition, float] = {}
    entries: list[CatalogEntry] = []
    for task, rule in zip(tasks, rules):
        if not isinstance(rule, OptimizedRangeRule):
            continue
        objective = rule.objective
        if objective not in base_rate_cache:
            base_rate_cache[objective] = miner.objective_base_rate(
                task.attribute, objective
            )
        entries.append(CatalogEntry(rule=rule, base_rate=base_rate_cache[objective]))
    # Any cached profile knows the data size; avoid touching the source again.
    if tasks:
        first = tasks[0]
        num_tuples = int(miner.profile_for(first.attribute, first.objective).total)
    else:
        num_tuples = 0
    return RuleCatalog(entries=tuple(entries), num_pairs=pairs, num_tuples=num_tuples)
