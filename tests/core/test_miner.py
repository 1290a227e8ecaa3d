"""Tests for the high-level :class:`OptimizedRuleMiner` facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bucketing import SortingEquiDepthBucketizer
from repro.core import (
    MiningSettings,
    MiningTask,
    OptimizedRuleMiner,
    RuleKind,
    maximum_average_range,
    maximum_support_range,
    solve_optimized_confidence,
    solve_optimized_support,
)
from repro.datasets import bank_customers, planted_range_relation
from repro.exceptions import OptimizationError, SchemaError
from repro.relation import BooleanIs, NumericInRange, Relation


@pytest.fixture(scope="module")
def planted() -> tuple[Relation, object]:
    return planted_range_relation(
        40_000,
        low=40.0,
        high=60.0,
        inside_probability=0.8,
        outside_probability=0.1,
        seed=2024,
    )


@pytest.fixture(scope="module")
def planted_miner(planted) -> OptimizedRuleMiner:
    relation, _ = planted
    return OptimizedRuleMiner(
        relation,
        num_buckets=200,
        bucketizer=SortingEquiDepthBucketizer(),
        rng=np.random.default_rng(0),
    )


class TestConstruction:
    def test_invalid_bucket_count(self, small_relation: Relation) -> None:
        with pytest.raises(OptimizationError):
            OptimizedRuleMiner(small_relation, num_buckets=0)

    def test_bucketing_requires_numeric_attribute(self, small_relation: Relation) -> None:
        miner = OptimizedRuleMiner(small_relation, num_buckets=4)
        with pytest.raises(SchemaError):
            miner.bucketing_for("card_loan")

    def test_bucketing_cached(self, small_relation: Relation) -> None:
        miner = OptimizedRuleMiner(small_relation, num_buckets=4)
        assert miner.bucketing_for("balance") is miner.bucketing_for("balance")

    def test_bucket_count_capped_by_distinct_values(self, small_relation: Relation) -> None:
        miner = OptimizedRuleMiner(small_relation, num_buckets=1000)
        assert miner.bucketing_for("balance").num_buckets <= 8
        assert miner.num_buckets == 1000
        assert miner.relation is small_relation


class TestPlantedRecovery:
    def test_optimized_confidence_rule_recovers_planted_range(self, planted, planted_miner) -> None:
        _, truth = planted
        rule = planted_miner.optimized_confidence_rule("value", "target", min_support=0.15)
        assert rule is not None
        assert rule.kind is RuleKind.OPTIMIZED_CONFIDENCE
        # The mined range must sit essentially inside the planted range and
        # its confidence must approach the planted inside-probability.
        assert rule.low == pytest.approx(truth.low, abs=3.0)
        assert rule.high == pytest.approx(truth.high, abs=3.0)
        assert rule.confidence > 0.7
        assert rule.support >= 0.15

    def test_optimized_support_rule_recovers_planted_range(self, planted, planted_miner) -> None:
        _, truth = planted
        # At a 75% confidence floor the optimal range can only absorb a sliver
        # of the 10%-confidence outside region, so it must hug the planted range.
        rule = planted_miner.optimized_support_rule("value", "target", min_confidence=0.75)
        assert rule is not None
        assert rule.kind is RuleKind.OPTIMIZED_SUPPORT
        assert rule.confidence >= 0.75
        assert rule.low == pytest.approx(truth.low, abs=4.0)
        assert rule.high == pytest.approx(truth.high, abs=4.0)

    def test_objective_given_as_condition(self, planted, planted_miner) -> None:
        rule = planted_miner.optimized_confidence_rule(
            "value", BooleanIs("target", True), min_support=0.15
        )
        assert rule is not None

    def test_infeasible_thresholds_return_none(self, planted_miner) -> None:
        assert planted_miner.optimized_support_rule("value", "target", min_confidence=0.999) is None

    def test_profile_cache_reused(self, planted_miner) -> None:
        first = planted_miner.profile_for("value", BooleanIs("target", True))
        second = planted_miner.profile_for("value", BooleanIs("target", True))
        assert first is second


class TestGeneralizedRules:
    def test_presumptive_conjunct_changes_counts(self, small_relation: Relation) -> None:
        miner = OptimizedRuleMiner(
            small_relation, num_buckets=8, bucketizer=SortingEquiDepthBucketizer()
        )
        plain = miner.optimized_confidence_rule("balance", "card_loan", min_support=0.25)
        conjunctive = miner.optimized_confidence_rule(
            "balance",
            "card_loan",
            min_support=0.25,
            presumptive=BooleanIs("auto_withdrawal"),
        )
        assert plain is not None and conjunctive is not None
        assert conjunctive.presumptive is not None
        assert conjunctive.support <= plain.support


class TestAverageRules:
    def test_average_rules_on_bank_data(self) -> None:
        relation, _ = bank_customers(15_000, seed=5)
        miner = OptimizedRuleMiner(
            relation,
            num_buckets=100,
            bucketizer=SortingEquiDepthBucketizer(),
            rng=np.random.default_rng(1),
        )
        max_average = miner.maximum_average_rule("age", "saving_balance", min_support=0.1)
        assert max_average is not None
        assert max_average.support >= 0.1

        overall = relation.mean("saving_balance")
        max_support = miner.maximum_support_average_rule(
            "age", "saving_balance", min_average=overall * 1.2
        )
        assert max_support is not None
        assert max_support.average >= overall * 1.2


class TestBulkMining:
    def test_mine_all_pairs_confidence(self, small_relation: Relation) -> None:
        miner = OptimizedRuleMiner(
            small_relation, num_buckets=8, bucketizer=SortingEquiDepthBucketizer()
        )
        rules = miner.mine_all_pairs(MiningSettings(min_support=0.25, min_confidence=0.5))
        # Two numeric attributes x two Boolean objectives.
        assert len(rules) == 4
        assert {rule.attribute for rule in rules} == {"balance", "age"}

    def test_mine_all_pairs_support_kind(self, small_relation: Relation) -> None:
        miner = OptimizedRuleMiner(
            small_relation, num_buckets=8, bucketizer=SortingEquiDepthBucketizer()
        )
        rules = miner.mine_all_pairs(
            MiningSettings(min_support=0.25, min_confidence=0.5),
            kind=RuleKind.OPTIMIZED_SUPPORT,
        )
        assert all(rule.kind is RuleKind.OPTIMIZED_SUPPORT for rule in rules)
        assert all(rule.confidence >= 0.5 for rule in rules)

    def test_mine_all_pairs_rejects_other_kinds(self, small_relation: Relation) -> None:
        miner = OptimizedRuleMiner(small_relation, num_buckets=8)
        with pytest.raises(OptimizationError):
            miner.mine_all_pairs(kind=RuleKind.MAXIMUM_AVERAGE)

    def test_explicit_attribute_lists(self, small_relation: Relation) -> None:
        miner = OptimizedRuleMiner(
            small_relation, num_buckets=8, bucketizer=SortingEquiDepthBucketizer()
        )
        rules = miner.mine_all_pairs(
            MiningSettings(min_support=0.25),
            numeric_attributes=["balance"],
            objectives=["card_loan"],
        )
        assert len(rules) == 1
        assert rules[0].attribute == "balance"


def _mixed_catalog() -> list[MiningTask]:
    """Confidence, support, §4.3 presumptive and §5 average tasks whose
    profiles have unequal bucket counts (age has few distinct values, and
    presumptive profiles drop their empty buckets)."""
    tasks = []
    for attribute in ("balance", "age"):
        for objective in ("card_loan", "online_banking"):
            tasks.append(MiningTask(attribute, objective, threshold=0.08))
            tasks.append(
                MiningTask(attribute, objective, RuleKind.OPTIMIZED_SUPPORT, 0.3)
            )
            tasks.append(
                MiningTask(
                    attribute, objective, threshold=0.02,
                    presumptive=BooleanIs("auto_withdrawal"),
                )
            )
            tasks.append(
                MiningTask(
                    attribute, objective, RuleKind.OPTIMIZED_SUPPORT, 0.5,
                    presumptive=NumericInRange("saving_balance", 15_000.0, 1e6),
                )
            )
        tasks.append(MiningTask(attribute, "saving_balance", RuleKind.MAXIMUM_AVERAGE))
        tasks.append(
            MiningTask(
                attribute, "saving_balance", RuleKind.MAXIMUM_SUPPORT_AVERAGE, 2000.0
            )
        )
    tasks.append(MiningTask("balance", "card_loan", threshold=0.0))
    tasks.append(MiningTask("balance", "card_loan", threshold=1.0))
    tasks.append(MiningTask("balance", "card_loan", RuleKind.OPTIMIZED_SUPPORT, 1.0))
    return tasks


def _scalar_loop(miner, tasks, settings) -> list:
    """The per-task reference for ``solve_many``: one solver call per task."""
    solvers = {
        RuleKind.OPTIMIZED_CONFIDENCE: solve_optimized_confidence,
        RuleKind.OPTIMIZED_SUPPORT: solve_optimized_support,
        RuleKind.MAXIMUM_AVERAGE: maximum_average_range,
        RuleKind.MAXIMUM_SUPPORT_AVERAGE: maximum_support_range,
    }
    return [
        solvers[task.kind](
            miner._task_profile(task), miner._task_threshold(task, settings)
        )
        for task in tasks
    ]


class TestStackedSolveMany:
    @pytest.fixture(scope="class")
    def bank(self) -> Relation:
        relation, _ = bank_customers(12_000, seed=8)
        return relation

    def test_stacked_equals_per_task_loop(self, bank: Relation) -> None:
        settings = MiningSettings()
        tasks = _mixed_catalog()
        miner = OptimizedRuleMiner(bank, num_buckets=150, rng=np.random.default_rng(3))
        stacked = miner.solve_many(tasks, settings)
        widths = {miner._task_profile(task).num_buckets for task in tasks}
        assert len(widths) > 2  # the catalog really stacks unequal M
        assert stacked == _scalar_loop(miner, tasks, settings)
        assert any(selection is None for selection in stacked)
        reference = OptimizedRuleMiner(
            bank, num_buckets=150, rng=np.random.default_rng(3), engine="reference"
        )
        assert reference.solve_many(tasks, settings) == stacked

    @pytest.mark.parametrize(
        "bad",
        [
            MiningTask("balance", "card_loan", threshold=1.5),
            MiningTask("balance", "card_loan", threshold=-0.1),
            MiningTask("balance", "card_loan", threshold=float("nan")),
            MiningTask("age", "card_loan", RuleKind.OPTIMIZED_SUPPORT, 0.0),
            MiningTask("age", "card_loan", RuleKind.OPTIMIZED_SUPPORT, float("nan")),
            MiningTask("age", "saving_balance", RuleKind.MAXIMUM_AVERAGE, 2.0),
            MiningTask(
                "age", "saving_balance", RuleKind.MAXIMUM_SUPPORT_AVERAGE, float("inf")
            ),
        ],
    )
    def test_bad_threshold_raises_the_scalar_error_before_solving(
        self, bank: Relation, bad: MiningTask, monkeypatch
    ) -> None:
        import repro.core.miner as miner_module

        settings = MiningSettings()
        miner = OptimizedRuleMiner(bank, num_buckets=60, rng=np.random.default_rng(4))
        with pytest.raises(OptimizationError) as scalar:
            _scalar_loop(miner, [bad], settings)

        def never(*args, **kwargs):
            raise AssertionError("a stack was solved before the thresholds were checked")

        monkeypatch.setattr(miner_module, "fast_maximize_ratio_many", never)
        monkeypatch.setattr(miner_module, "fast_maximize_support_many", never)
        # The bad task sits after valid tasks of every stacked kind, and
        # before a later bad task of another kind: the first one in task
        # order decides the error.
        later_bad = MiningTask("balance", "online_banking", threshold=7.0)
        tasks = _mixed_catalog()[:4] + [bad, later_bad]
        with pytest.raises(OptimizationError) as stacked:
            miner.solve_many(tasks, settings)
        assert str(stacked.value) == str(scalar.value)
