"""Parity and behavior tests for the unified ProfileBuilder pipeline.

The headline guarantee: the same data produces **bit-identical**
``BucketProfile``\\ s whatever the source type (in-memory relation, chunked
stream, CSV file) and whatever the executor (serial, streaming,
multiprocessing).  Counts are integers and partials merge in chunk order, so
"identical" here means ``np.array_equal``, not ``allclose``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.bucketing import ReservoirSampler, SortingEquiDepthBucketizer
from repro.core import BucketProfile, MiningTask, OptimizedRuleMiner, RuleKind
from repro.datasets import bank_customers
from repro.exceptions import PipelineError
from repro.mining import mine_rule_catalog
from repro.pipeline import (
    EXECUTORS,
    AttributeSpec,
    ChunkedSource,
    CSVSource,
    ProfileBuilder,
    RelationSource,
)
from repro.relation import Relation, write_csv
from repro.relation.conditions import BooleanIs, NumericInRange

CHUNK = 700
BUCKETS = 50


@pytest.fixture(scope="module")
def relation() -> Relation:
    relation, _ = bank_customers(3_000, seed=23)
    return relation


@pytest.fixture(scope="module")
def csv_path(relation: Relation, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("builder") / "bank.csv"
    write_csv(relation, path)
    return path


def source_matrix(relation: Relation, csv_path: Path) -> dict[str, object]:
    """The three source types over identical tuples, identically chunked."""
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


class TestSourceExecutorParity:
    def test_profiles_bit_identical_across_sources_and_executors(
        self, relation: Relation, csv_path: Path
    ) -> None:
        """The full 3 sources x 3 executors matrix, one scan recipe each."""
        objective = BooleanIs("card_loan", True)
        profiles = {}
        for executor in EXECUTORS:
            for name, source in source_matrix(relation, csv_path).items():
                builder = ProfileBuilder(
                    num_buckets=BUCKETS, executor=executor, seed=5, max_workers=2
                )
                profiles[(executor, name)] = builder.build_profile(
                    source, "balance", objective
                )
        reference = profiles[("serial", "relation")]
        for profile in profiles.values():
            assert_profiles_identical(profile, reference)

    def test_boundaries_invariant_to_chunk_size(self, relation: Relation) -> None:
        """The reservoir pass depends on tuple order only, not chunking."""
        builder = ProfileBuilder(num_buckets=BUCKETS, seed=9)
        whole = builder.sample_bucketings(RelationSource(relation), ["balance"])
        tiny = builder.sample_bucketings(
            RelationSource(relation, chunk_size=101), ["balance"]
        )
        assert np.array_equal(whole["balance"].cuts, tiny["balance"].cuts)

    def test_average_profiles_identical_across_matrix(
        self, relation: Relation, csv_path: Path
    ) -> None:
        profiles = []
        for executor in EXECUTORS:
            for source in source_matrix(relation, csv_path).values():
                builder = ProfileBuilder(
                    num_buckets=BUCKETS, executor=executor, seed=5, max_workers=2
                )
                profiles.append(
                    builder.build_average_profile(source, "age", "balance")
                )
        for profile in profiles[1:]:
            assert_profiles_identical(profile, profiles[0])

    def test_build_many_shares_scans_across_attributes(
        self, relation: Relation, csv_path: Path
    ) -> None:
        """One build_many call equals per-attribute builds, for every attribute."""
        objective = BooleanIs("card_loan", True)
        builder = ProfileBuilder(num_buckets=BUCKETS, seed=5)
        specs = [
            AttributeSpec("balance", objectives=(objective,), targets=("age",)),
            AttributeSpec("age", objectives=(objective,)),
        ]
        source = CSVSource(csv_path, chunk_size=CHUNK)
        batch = builder.build_many(source, specs)
        single_balance = builder.build_profile(
            RelationSource(relation, chunk_size=CHUNK), "balance", objective
        )
        assert_profiles_identical(
            batch["balance"].profile(objective), single_balance
        )
        single_avg = builder.build_average_profile(
            RelationSource(relation), "balance", "age"
        )
        assert_profiles_identical(batch["balance"].average_profile("age"), single_avg)
        assert batch["age"].profile(objective).attribute == "age"


class TestAgainstInMemoryReference:
    def test_pipeline_matches_miner_in_memory_profile(self, relation: Relation) -> None:
        """Same bucketing in => profile identical to the miner's cached path."""
        objective = BooleanIs("card_loan", True)
        miner = OptimizedRuleMiner(
            relation, num_buckets=BUCKETS, bucketizer=SortingEquiDepthBucketizer()
        )
        bucketing = miner.bucketing_for("balance")
        builder = ProfileBuilder(num_buckets=BUCKETS)
        piped = builder.build_profile(
            RelationSource(relation, chunk_size=CHUNK),
            "balance",
            objective,
            bucketing=bucketing,
        )
        assert_profiles_identical(piped, miner.profile_for("balance", objective))

    def test_presumptive_profile_matches_from_relation(self, relation: Relation) -> None:
        objective = BooleanIs("card_loan", True)
        presumptive = NumericInRange("age", 30.0, 60.0)
        bucketing = SortingEquiDepthBucketizer().build(
            relation.numeric_column("balance"), BUCKETS
        )
        expected = BucketProfile.from_relation(
            relation, "balance", objective, bucketing, presumptive=presumptive
        )
        for executor in EXECUTORS:
            builder = ProfileBuilder(
                num_buckets=BUCKETS, executor=executor, max_workers=2
            )
            piped = builder.build_profile(
                RelationSource(relation, chunk_size=CHUNK),
                "balance",
                objective,
                presumptive=presumptive,
                bucketing=bucketing,
            )
            assert_profiles_identical(piped, expected)


class TestStreamingMiner:
    def test_solve_many_parity_with_in_memory_reference(
        self, relation: Relation, csv_path: Path
    ) -> None:
        """Identical selections from a CSV stream and the in-memory engine."""
        objective = BooleanIs("card_loan", True)
        tasks = [
            MiningTask("balance", objective, RuleKind.OPTIMIZED_CONFIDENCE, 0.1),
            MiningTask("balance", objective, RuleKind.OPTIMIZED_SUPPORT, 0.5),
            MiningTask("age", objective, RuleKind.OPTIMIZED_CONFIDENCE, 0.1),
            MiningTask("age", "balance", RuleKind.MAXIMUM_AVERAGE, 0.1),
        ]
        streaming_miner = OptimizedRuleMiner(
            CSVSource(csv_path, chunk_size=CHUNK), num_buckets=BUCKETS
        )
        streamed = streaming_miner.solve_many(tasks)

        in_memory_miner = OptimizedRuleMiner(relation, num_buckets=BUCKETS)
        # Inject the pipeline's sampled boundaries so both engines optimize
        # the same buckets; the selections must then agree exactly.
        in_memory_miner._bucketings.update(
            {
                name: streaming_miner.bucketing_for(name)
                for name in ("balance", "age")
            }
        )
        expected = in_memory_miner.solve_many(tasks)
        assert len(streamed) == len(expected)
        for task, left, right in zip(tasks, streamed, expected):
            assert (left is None) == (right is None)
            if left is None:
                continue
            assert (left.start, left.end) == (right.start, right.end)
            assert left.support_count == right.support_count
            if task.kind is RuleKind.MAXIMUM_AVERAGE:
                # §5 objective values are float *sums*: the chunked
                # accumulation differs from the whole-column bincount in the
                # last bits (counts and the chosen range still agree exactly).
                assert left.objective_value == pytest.approx(
                    right.objective_value, rel=1e-12
                )
            else:
                assert left.objective_value == right.objective_value

    def test_streaming_miner_exposes_schema_but_not_relation(
        self, csv_path: Path, relation: Relation
    ) -> None:
        miner = OptimizedRuleMiner(CSVSource(csv_path), num_buckets=BUCKETS)
        assert miner.streaming
        assert miner.schema == relation.schema
        from repro.exceptions import OptimizationError

        with pytest.raises(OptimizationError):
            miner.relation

    def test_in_memory_source_uses_fast_path(self, relation: Relation) -> None:
        miner = OptimizedRuleMiner(RelationSource(relation), num_buckets=BUCKETS)
        assert not miner.streaming
        assert miner.relation is relation

    def test_catalog_runs_from_csv_without_materializing(
        self, relation: Relation, csv_path: Path, monkeypatch
    ) -> None:
        """Acceptance: the §1.3 catalog end-to-end over a CSVSource, out-of-core."""

        def forbidden(self):  # pragma: no cover - would mean materialization
            raise AssertionError("streaming catalog materialized the relation")

        monkeypatch.setattr(CSVSource, "materialize", forbidden)
        source = CSVSource(csv_path, chunk_size=CHUNK)
        catalog = mine_rule_catalog(source, num_buckets=100)
        reference = mine_rule_catalog(relation, num_buckets=100)
        assert catalog.num_pairs == reference.num_pairs
        assert len(catalog) > 0
        # Base rates are data properties: identical however the data arrived.
        streamed_rates = {
            str(entry.rule.objective): entry.base_rate for entry in catalog.entries
        }
        reference_rates = {
            str(entry.rule.objective): entry.base_rate for entry in reference.entries
        }
        for objective, rate in streamed_rates.items():
            assert rate == reference_rates[objective]


class TestReservoirChunkInvariance:
    def test_sample_independent_of_chunking(self) -> None:
        values = np.random.default_rng(3).normal(size=5_000)
        samples = []
        for chunk_size in (1, 7, 640, 5_000):
            sampler = ReservoirSampler(100, rng=np.random.default_rng(42))
            for start in range(0, values.size, chunk_size):
                sampler.extend(values[start : start + chunk_size])
            samples.append(sampler.sample())
        for sample in samples[1:]:
            assert np.array_equal(sample, samples[0])


def _array_source(values: np.ndarray, chunk_size: int) -> ChunkedSource:
    def chunks():
        for start in range(0, values.size, chunk_size):
            part = values[start : start + chunk_size]
            yield part, np.zeros(part.size, dtype=bool)

    return ChunkedSource.from_arrays(chunks, attribute="value")


class TestSampleBucketings:
    """Algorithm 3.1 steps 1–3 over a stream, the builder's sampling pass."""

    def test_matches_in_memory_quality(self) -> None:
        values = np.random.default_rng(8).lognormal(5.0, 1.0, size=60_000)
        builder = ProfileBuilder(num_buckets=100, seed=3)
        streamed = builder.sample_bucketings(
            _array_source(values, 4096), ["value"]
        )["value"]
        exact = SortingEquiDepthBucketizer().build(values, 100)
        counts = streamed.counts(values)
        ideal = values.size / 100
        assert counts.sum() == values.size
        assert counts.max() < 2.0 * ideal
        assert counts.max() < 2.0 * exact.counts(values).max()

    def test_single_bucket(self) -> None:
        builder = ProfileBuilder(num_buckets=1)
        bucketing = builder.sample_bucketings(
            _array_source(np.array([1.0, 2.0]), 2), ["value"]
        )["value"]
        assert bucketing.num_buckets == 1

    def test_empty_source_is_typed(self) -> None:
        builder = ProfileBuilder(num_buckets=10)
        empty = _array_source(np.array([]), 4)
        with pytest.raises(PipelineError, match="no values"):
            builder.sample_bucketings(empty, ["value"])
        with pytest.raises(PipelineError):
            builder.sample_bucketings(empty, ["value"], num_buckets={"value": 0})


class TestValidation:
    def test_unknown_executor_rejected(self) -> None:
        with pytest.raises(PipelineError):
            ProfileBuilder(executor="gpu")

    def test_invalid_parameters_rejected(self) -> None:
        with pytest.raises(PipelineError):
            ProfileBuilder(num_buckets=0)
        with pytest.raises(PipelineError):
            ProfileBuilder(sample_factor=0)
        with pytest.raises(PipelineError):
            ProfileBuilder(max_workers=0)

    def test_uncounted_objective_rejected(self, relation: Relation) -> None:
        builder = ProfileBuilder(num_buckets=BUCKETS)
        counts = builder.build_counts(
            RelationSource(relation), "balance",
            objectives=[BooleanIs("card_loan", True)],
        )
        with pytest.raises(PipelineError):
            counts.profile(BooleanIs("auto_withdrawal", True))
        with pytest.raises(PipelineError):
            counts.average_profile("age")

    def test_spec_merge_rejects_mismatched_attributes(self) -> None:
        with pytest.raises(PipelineError):
            AttributeSpec("a").merged_with(AttributeSpec("b"))

    def test_empty_source_rejected(self, relation: Relation) -> None:
        empty = RelationSource(relation.head(0))
        builder = ProfileBuilder(num_buckets=BUCKETS)
        with pytest.raises(PipelineError):
            builder.build_profile(empty, "balance", BooleanIs("card_loan", True))
