"""Fused-scan parity suite for the :class:`ScanPlan` engine.

The headline guarantees:

* a plan mixing bucket + presumptive + average + grid requests produces
  profiles **bit-identical** to the in-memory oracles
  (``BucketProfile.from_relation`` with and without ``presumptive=``,
  ``BucketProfile.from_relation_average``, ``GridProfile.from_relation``)
  built on the plan's own bucketings, across the full 3 sources × 3
  executors matrix — the oracles share no counting code with the plan fold;
* a mixed plan touches the source exactly **once** — boundary sampling,
  §4.3 conjunct counting, and 2-D grid counting all ride the same physical
  scan.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import pytest

from repro.bucketing import Bucketing
from repro.core import BucketProfile, MiningTask, OptimizedRuleMiner, RuleKind
from repro.datasets import bank_customers
from repro.exceptions import PipelineError
from repro.pipeline import (
    EXECUTORS,
    ChunkedSource,
    CSVSource,
    DataSource,
    GridProfile,
    GridProfileBuilder,
    ProfileBuilder,
    RelationSource,
    ScanPlan,
)
from repro.relation import Relation, write_csv
from repro.relation.conditions import BooleanIs, NumericInRange

CHUNK = 700
BUCKETS = 40
SEED = 11


@pytest.fixture(scope="module")
def relation() -> Relation:
    relation, _ = bank_customers(3_000, seed=29)
    return relation


@pytest.fixture(scope="module")
def csv_path(relation: Relation, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("plan") / "bank.csv"
    write_csv(relation, path)
    return path


def source_matrix(relation: Relation, csv_path: Path) -> dict[str, DataSource]:
    return {
        "relation": RelationSource(relation, chunk_size=CHUNK),
        "chunked": ChunkedSource(
            lambda: RelationSource(relation, chunk_size=CHUNK).chunks()
        ),
        "csv": CSVSource(csv_path, chunk_size=CHUNK),
    }


def assert_profiles_identical(left: BucketProfile, right: BucketProfile) -> None:
    assert np.array_equal(left.sizes, right.sizes)
    assert np.array_equal(left.values, right.values)
    assert np.array_equal(left.lows, right.lows)
    assert np.array_equal(left.highs, right.highs)
    assert left.total == right.total


class ScanCountingSource(DataSource):
    """Wrap a source and count how many scans (of either kind) it serves."""

    def __init__(self, inner: DataSource) -> None:
        self.inner = inner
        self.scans = 0

    @property
    def schema(self):
        return self.inner.schema

    def chunks(self) -> Iterator[Relation]:
        self.scans += 1
        return self.inner.chunks()

    def scan(self, columns: Sequence[str] | None = None) -> Iterator[Relation]:
        self.scans += 1
        return self.inner.scan(columns)


def build_mixed_plan() -> tuple[ScanPlan, dict[str, int]]:
    objective = BooleanIs("card_loan", True)
    conjuncts = [
        NumericInRange("age", 30.0, 60.0),
        BooleanIs("auto_withdrawal", True),
    ]
    plan = ScanPlan()
    ids = {
        "bucket": plan.add_bucket(
            "balance", objectives=[objective], targets=["age"]
        ),
        "average": plan.add_average("age", targets=["balance"]),
        "presumptive": plan.add_presumptive("balance", objective, conjuncts),
        "grid": plan.add_grid("age", "balance", [objective], grid=(8, 6)),
    }
    return plan, ids


def chunk_ordered_average(
    source: DataSource, attribute: str, target: str, bucketing: Bucketing
) -> BucketProfile:
    """The §5 oracle with its sums folded in the source's chunk order.

    A §5 sum is a float sum whose last bits depend on summation order, and
    the plan fold adds one partial per chunk.  The oracle therefore takes
    ``from_relation_average`` and replaces its whole-array sums with the
    in-memory weighted bincounts of each chunk, added in chunk order.
    """
    reference = BucketProfile.from_relation_average(
        source.materialize(), attribute, target, bucketing
    )
    sums = np.zeros(bucketing.num_buckets)
    sizes = np.zeros(bucketing.num_buckets, dtype=np.int64)
    for chunk in source.chunks():
        values = chunk.numeric_column(attribute)
        sums += bucketing.weighted_sums(values, chunk.numeric_column(target))
        sizes += bucketing.counts(values)
    return BucketProfile(
        attribute=attribute,
        objective_label=reference.objective_label,
        sizes=reference.sizes,
        values=sums[sizes > 0],
        lows=reference.lows,
        highs=reference.highs,
        total=reference.total,
    )


def assert_grid_matches_oracle(grid: GridProfile, oracle: GridProfile) -> None:
    assert np.array_equal(grid.sizes, oracle.sizes)
    assert np.array_equal(grid.values, oracle.values)
    for axis in ("row_lows", "row_highs", "column_lows", "column_highs"):
        assert np.array_equal(
            getattr(grid, axis), getattr(oracle, axis), equal_nan=True
        )
    assert grid.total == oracle.total


class TestMixedPlanParity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_mixed_plan_matches_per_request_builders(
        self, relation: Relation, csv_path: Path, executor: str
    ) -> None:
        """bucket+presumptive+average+grid in one plan == in-memory oracles."""
        objective = BooleanIs("card_loan", True)
        conjuncts = [
            NumericInRange("age", 30.0, 60.0),
            BooleanIs("auto_withdrawal", True),
        ]
        for name, source in source_matrix(relation, csv_path).items():
            builder = ProfileBuilder(
                num_buckets=BUCKETS, executor=executor, seed=SEED, max_workers=2
            )
            plan, ids = build_mixed_plan()
            results = builder.execute_plan(source, plan)
            fresh = source_matrix(relation, csv_path)[name]
            data = fresh.materialize()

            # The plan samples exactly the boundaries a standalone pass does.
            sampled = builder.sample_axis_bucketings(
                fresh, [("balance", BUCKETS), ("age", BUCKETS), ("age", 8),
                        ("balance", 6)]
            )
            balance = results.bucketing(ids["bucket"])
            age = results.bucketing(ids["average"])
            row, column = results.request_bucketings(ids["grid"])
            for got, pair in (
                (balance, ("balance", BUCKETS)),
                (age, ("age", BUCKETS)),
                (row, ("age", 8)),
                (column, ("balance", 6)),
            ):
                assert np.array_equal(got.cuts, sampled[pair].cuts)
            assert results.bucketing(ids["presumptive"]) is balance

            counts = results.counts(ids["bucket"])
            assert_profiles_identical(
                counts.profile(objective),
                BucketProfile.from_relation(data, "balance", objective, balance),
            )
            assert_profiles_identical(
                counts.average_profile("age"),
                chunk_ordered_average(fresh, "balance", "age", balance),
            )
            assert_profiles_identical(
                results.counts(ids["average"]).average_profile("balance"),
                chunk_ordered_average(fresh, "age", "balance", age),
            )

            presumptive = results.presumptive_profiles(ids["presumptive"])
            assert list(presumptive) == conjuncts
            for conjunct in conjuncts:
                assert_profiles_identical(
                    presumptive[conjunct],
                    BucketProfile.from_relation(
                        data, "balance", objective, balance, presumptive=conjunct
                    ),
                )

            assert_grid_matches_oracle(
                results.grid_counts(ids["grid"]).profile(objective),
                GridProfile.from_relation(
                    data, "age", "balance", objective, row, column
                ),
            )

    def test_grid_builder_matches_in_memory_oracle(
        self, relation: Relation, csv_path: Path
    ) -> None:
        """GridProfileBuilder over CSV == GridProfile.from_relation, non-square."""
        objective = BooleanIs("card_loan", True)
        source = CSVSource(csv_path, chunk_size=CHUNK)
        counts = GridProfileBuilder(seed=SEED).build_grid_counts(
            source, "age", "balance", [objective], grid=(9, 7)
        )
        assert counts.sizes.shape == (9, 7)
        assert_grid_matches_oracle(
            counts.profile(objective),
            GridProfile.from_relation(
                source.materialize(),
                "age",
                "balance",
                objective,
                counts.row_bucketing,
                counts.column_bucketing,
            ),
        )


class TestSingleScan:
    def test_mixed_plan_scans_source_exactly_once(self, relation: Relation) -> None:
        """Sampling + counting of a mixed plan ride one physical scan."""
        source = ScanCountingSource(RelationSource(relation, chunk_size=CHUNK))
        builder = ProfileBuilder(num_buckets=BUCKETS, seed=SEED)
        plan, ids = build_mixed_plan()
        results = builder.execute_plan(source, plan)
        assert source.scans == 1
        assert results.counts(ids["bucket"]).total == relation.num_tuples

    def test_known_bucketings_scan_source_exactly_once(
        self, relation: Relation
    ) -> None:
        builder = ProfileBuilder(num_buckets=BUCKETS, seed=SEED)
        bucketings = builder.sample_bucketings(
            RelationSource(relation), ["balance"]
        )
        source = ScanCountingSource(RelationSource(relation, chunk_size=CHUNK))
        plan = ScanPlan()
        request = plan.add_bucket("balance", objectives=[BooleanIs("card_loan", True)])
        results = builder.execute_plan(source, plan, bucketings=bucketings)
        assert source.scans == 1
        assert np.array_equal(
            results.bucketing(request).cuts, bucketings["balance"].cuts
        )

    def test_cache_overflow_falls_back_to_second_scan(
        self, relation: Relation
    ) -> None:
        """Past the payload-cache budget the plan re-scans — same results."""
        plan, ids = build_mixed_plan()
        cached = ProfileBuilder(num_buckets=BUCKETS, seed=SEED).execute_plan(
            RelationSource(relation, chunk_size=CHUNK), plan
        )
        source = ScanCountingSource(RelationSource(relation, chunk_size=CHUNK))
        tight = ProfileBuilder(num_buckets=BUCKETS, seed=SEED, cache_budget_mb=0)
        plan2, ids2 = build_mixed_plan()
        uncached = tight.execute_plan(source, plan2)
        assert source.scans == 2
        objective = BooleanIs("card_loan", True)
        assert_profiles_identical(
            uncached.counts(ids2["bucket"]).profile(objective),
            cached.counts(ids["bucket"]).profile(objective),
        )
        assert np.array_equal(
            uncached.grid_counts(ids2["grid"]).sizes,
            cached.grid_counts(ids["grid"]).sizes,
        )

    def test_streaming_catalog_with_conjuncts_scans_once(
        self, relation: Relation, csv_path: Path
    ) -> None:
        """solve_many prefetches plain + §4.3 tasks in one physical scan."""
        objective = BooleanIs("card_loan", True)
        conjunct = BooleanIs("auto_withdrawal", True)
        tasks = [
            MiningTask("balance", objective, RuleKind.OPTIMIZED_CONFIDENCE, 0.1),
            MiningTask("age", "balance", RuleKind.MAXIMUM_AVERAGE, 0.1),
            MiningTask(
                "balance",
                objective,
                RuleKind.OPTIMIZED_CONFIDENCE,
                0.05,
                presumptive=conjunct,
            ),
        ]
        source = ScanCountingSource(CSVSource(csv_path, chunk_size=CHUNK))
        miner = OptimizedRuleMiner(source, num_buckets=BUCKETS)
        streamed = miner.solve_many(tasks)
        assert source.scans == 1
        assert len(streamed) == len(tasks)

        # The in-memory miner counts from the relation with no pipeline code;
        # handed the same boundaries it must find the same ranges.
        reference = OptimizedRuleMiner(relation, num_buckets=BUCKETS)
        reference._bucketings.update(
            {name: miner.bucketing_for(name) for name in ("balance", "age")}
        )
        expected = reference.solve_many(tasks)
        for left, right in zip(streamed, expected):
            assert (left is None) == (right is None)
            if left is None:
                continue
            assert (left.start, left.end) == (right.start, right.end)
            assert left.support_count == right.support_count


class TestPlanValidation:
    def test_empty_plan_returns_empty_results(self, relation: Relation) -> None:
        builder = ProfileBuilder(num_buckets=BUCKETS)
        results = builder.execute_plan(RelationSource(relation), ScanPlan())
        with pytest.raises(IndexError):
            results.request(0)

    def test_same_axis_grid_rejected(self) -> None:
        with pytest.raises(PipelineError):
            ScanPlan().add_grid("age", "age", [])

    def test_presumptive_needs_conjuncts(self) -> None:
        with pytest.raises(PipelineError):
            ScanPlan().add_presumptive("age", BooleanIs("card_loan", True), [])

    def test_nonpositive_bucket_overrides_rejected(self) -> None:
        with pytest.raises(PipelineError):
            ScanPlan().add_bucket("age", num_buckets=0)
        with pytest.raises(PipelineError):
            ScanPlan().add_grid("age", "balance", [], grid=(5, 0))

    def test_kind_mismatch_accessors_rejected(self, relation: Relation) -> None:
        builder = ProfileBuilder(num_buckets=BUCKETS, seed=SEED)
        plan = ScanPlan()
        request = plan.add_bucket("balance", objectives=[BooleanIs("card_loan", True)])
        results = builder.execute_plan(RelationSource(relation), plan)
        with pytest.raises(PipelineError):
            results.presumptive_profiles(request)
        with pytest.raises(PipelineError):
            results.grid_counts(request)

    def test_negative_cache_budget_rejected(self) -> None:
        with pytest.raises(PipelineError):
            ProfileBuilder(cache_budget_mb=-1)

    def test_malformed_cache_budget_env_is_typed(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_PLAN_CACHE_MB", "lots")
        with pytest.raises(PipelineError, match="REPRO_PLAN_CACHE_MB.*'lots'"):
            ProfileBuilder()


class TestSharedAxes:
    def test_same_attribute_at_two_bucket_counts(self, relation: Relation) -> None:
        """One plan may bucket an attribute at several granularities."""
        builder = ProfileBuilder(num_buckets=BUCKETS, seed=SEED)
        objective = BooleanIs("card_loan", True)
        plan = ScanPlan()
        coarse = plan.add_bucket("balance", objectives=[objective], num_buckets=10)
        fine = plan.add_bucket("balance", objectives=[objective])
        results = builder.execute_plan(RelationSource(relation, chunk_size=CHUNK), plan)

        for request, num_buckets in ((coarse, 10), (fine, BUCKETS)):
            bucketing = ProfileBuilder(
                num_buckets=num_buckets, seed=SEED
            ).sample_bucketings(
                RelationSource(relation, chunk_size=CHUNK), ["balance"]
            )["balance"]
            assert np.array_equal(results.bucketing(request).cuts, bucketing.cuts)
            assert_profiles_identical(
                results.counts(request).profile(objective),
                BucketProfile.from_relation(
                    relation, "balance", objective, bucketing
                ),
            )
