"""The out-of-core counting scan against in-memory counts.

Algorithm 3.1 step 4 counts every tuple into its bucket in one scan, and
Algorithm 3.2 splits that scan over processing elements whose per-partition
counts merge by summing.  In this library both are the ``ScanPlan`` fold of
:class:`ProfileBuilder`: chunks are the partitions and the ``serial`` /
``streaming`` / ``multiprocessing`` executors decide where they are counted.
These tests check the fold's totals, partials and data bounds against the
in-memory :class:`Bucketing` counts, which share no code with the pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bucketing import Bucketing, SortingEquiDepthBucketizer
from repro.core import BucketProfile, maximize_ratio, solve_optimized_confidence
from repro.pipeline import EXECUTORS, ChunkedSource, ProfileBuilder, ScanPlan
from repro.relation.conditions import BooleanIs

OBJECTIVE = BooleanIs("C", True)


def array_source(
    values: np.ndarray, flags: np.ndarray, chunk_size: int
) -> ChunkedSource:
    """A ``(value, flag)`` stream over ``values`` in ``chunk_size`` slices."""

    def chunks():
        for start in range(0, values.size, chunk_size):
            yield values[start : start + chunk_size], flags[start : start + chunk_size]

    return ChunkedSource.from_arrays(chunks, attribute="A", objective="C")


def builder_for(executor: str, **options) -> ProfileBuilder:
    return ProfileBuilder(num_buckets=20, executor=executor, max_workers=2, **options)


@pytest.fixture(scope="module")
def data() -> tuple[np.ndarray, np.ndarray, Bucketing]:
    generator = np.random.default_rng(21)
    values = generator.normal(size=10_000)
    flags = generator.random(values.size) < 0.3
    bucketing = SortingEquiDepthBucketizer().build(values, 20)
    return values, flags, bucketing


class TestTotals:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_counts_match_in_memory_counts(self, data, executor: str) -> None:
        values, flags, bucketing = data
        counts = builder_for(executor).build_counts(
            array_source(values, flags, 1_000),
            "A",
            objectives=[OBJECTIVE],
            bucketing=bucketing,
        )
        assert counts.total == values.size
        assert np.array_equal(counts.sizes, bucketing.counts(values))
        assert np.array_equal(
            counts.conditional[OBJECTIVE], bucketing.conditional_counts(values, flags)
        )

    @pytest.mark.parametrize("chunk_size", [7, 333, 3_333, 10_000])
    def test_every_tuple_counted_exactly_once(self, chunk_size: int) -> None:
        values = np.random.default_rng(5).normal(size=3_333)
        flags = values > 0.0
        bucketing = Bucketing([0.0])
        counts = builder_for("serial").build_counts(
            array_source(values, flags, chunk_size),
            "A",
            objectives=[OBJECTIVE],
            bucketing=bucketing,
        )
        assert counts.sizes.sum() == values.size
        assert np.array_equal(counts.sizes, bucketing.counts(values))
        assert counts.conditional[OBJECTIVE].sum() == np.count_nonzero(flags)

    def test_more_workers_than_chunks(self) -> None:
        values = np.array([1.0, 2.0, 3.0])
        builder = ProfileBuilder(num_buckets=2, executor="multiprocessing", max_workers=4)
        counts = builder.build_counts(
            array_source(values, values > 1.5, 3),
            "A",
            objectives=[OBJECTIVE],
            bucketing=Bucketing([1.5]),
        )
        assert counts.sizes.tolist() == [1, 2]
        assert counts.conditional[OBJECTIVE].tolist() == [0, 2]

    def test_worker_count_does_not_change_counts(self, data) -> None:
        values, flags, bucketing = data
        results = [
            ProfileBuilder(
                num_buckets=20, executor="multiprocessing", max_workers=workers
            ).build_counts(
                array_source(values, flags, 700),
                "A",
                objectives=[OBJECTIVE],
                bucketing=bucketing,
            )
            for workers in (1, 2)
        ]
        assert np.array_equal(results[0].sizes, results[1].sizes)
        assert np.array_equal(
            results[0].conditional[OBJECTIVE], results[1].conditional[OBJECTIVE]
        )


class TestPartitionPartials:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_partition_counts_sum_to_totals(self, data, executor: str) -> None:
        """Per-chunk partials counted apart merge into the fold's totals."""
        values, flags, bucketing = data
        source = array_source(values, flags, 1_429)
        builder = builder_for(executor)
        plan = ScanPlan()
        request_id = plan.add_bucket("A", objectives=[OBJECTIVE])
        compiled = builder.compile_plan(plan, {"A": bucketing})
        partials = [compiled.count_chunks([chunk]).parts[0] for chunk in source.chunks()]
        assert len(partials) == 7
        folded = builder.execute_plan(source, plan, bucketings={"A": bucketing})
        counts = folded.counts(request_id)
        stacked = np.vstack([part.sizes for part in partials])
        assert np.array_equal(stacked.sum(axis=0), counts.sizes)
        conditional = np.vstack([part.conditional[0] for part in partials])
        assert np.array_equal(conditional.sum(axis=0), counts.conditional[OBJECTIVE])
        assert sum(part.num_tuples for part in partials) == counts.total

    def test_sampling_is_deterministic_per_seed(self, data) -> None:
        """Same seed, same boundaries; another seed still counts every tuple."""
        values, flags, _ = data
        first, second, other = (
            builder_for("multiprocessing", seed=seed).build_counts(
                array_source(values, flags, 1_000), "A", objectives=[OBJECTIVE]
            )
            for seed in (0, 0, 99)
        )
        assert np.array_equal(first.bucketing.cuts, second.bucketing.cuts)
        assert np.array_equal(first.sizes, second.sizes)
        assert other.sizes.sum() == first.sizes.sum() == values.size


class TestBounds:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_profile_bounds_track_observed_extremes(self, executor: str) -> None:
        values = np.random.default_rng(4).uniform(0.0, 100.0, size=5_000)
        flags = values > 50.0
        bucketing = SortingEquiDepthBucketizer().build(values, 10)
        profile = builder_for(executor).build_profile(
            array_source(values, flags, 500), "A", OBJECTIVE, bucketing=bucketing
        )
        lows, highs = bucketing.data_bounds(values)
        assert profile.lows[0] == values.min()
        assert profile.highs[-1] == values.max()
        assert np.array_equal(profile.lows, lows)
        assert np.array_equal(profile.highs, highs)


class TestSampledProfileMining:
    @pytest.mark.parametrize("executor", ["streaming", "multiprocessing"])
    def test_sampled_profile_matches_in_memory_mining(self, executor: str) -> None:
        """A sampled-boundary profile mines the planted range (§3.4 envelope)."""
        generator = np.random.default_rng(0)
        size = 50_000
        values = generator.uniform(0.0, 100.0, size)
        inside = (values >= 40.0) & (values <= 60.0)
        flags = generator.random(size) < np.where(inside, 0.8, 0.1)

        builder = ProfileBuilder(num_buckets=200, executor=executor, max_workers=2)
        profile = builder.build_profile(array_source(values, flags, 5_000), "A", OBJECTIVE)
        streamed = solve_optimized_confidence(profile, min_support=0.15)
        assert streamed is not None

        exact_bucketing = SortingEquiDepthBucketizer().build(values, 200)
        lows, highs = exact_bucketing.data_bounds(values)
        exact_profile = BucketProfile(
            attribute="A",
            objective_label="C",
            sizes=exact_bucketing.counts(values).astype(float),
            values=exact_bucketing.conditional_counts(values, flags).astype(float),
            lows=lows,
            highs=highs,
            total=float(size),
        )
        exact = maximize_ratio(
            exact_profile.sizes, exact_profile.values, 0.15 * size, total=float(size)
        )
        assert streamed.ratio == pytest.approx(exact.ratio, rel=0.05)
        low, high = profile.range_bounds(streamed.start, streamed.end)
        assert 30.0 < low < 50.0
        assert 50.0 < high < 70.0
