"""Tests for relation-level bucket counting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bucketing import (
    Bucketing,
    count_conditions,
    count_many,
    count_relation_buckets,
    masked_bucket_counts,
)
from repro.bucketing import counting as counting_module
from repro.exceptions import BucketingError
from repro.relation import BooleanIs, Relation


class TestCountRelationBuckets:
    def test_sizes_and_conditionals(self, small_relation: Relation) -> None:
        bucketing = Bucketing([1500.0, 5000.0])
        counts = count_relation_buckets(
            small_relation,
            "balance",
            bucketing,
            objectives={"card_loan": BooleanIs("card_loan")},
        )
        assert counts.attribute == "balance"
        assert counts.num_buckets == 3
        assert list(counts.sizes) == [3, 3, 2]
        assert list(counts.conditional["card_loan"]) == [1, 3, 0]
        assert counts.total == small_relation.num_tuples

    def test_data_bounds_track_observed_values(self, small_relation: Relation) -> None:
        bucketing = Bucketing([1500.0, 5000.0])
        counts = count_relation_buckets(small_relation, "balance", bucketing)
        assert counts.data_low[0] == 100.0
        assert counts.data_high[0] == 1000.0
        assert counts.data_high[2] == 9000.0

    def test_evenness_metric(self, small_relation: Relation) -> None:
        bucketing = Bucketing([3500.0])
        counts = count_relation_buckets(small_relation, "balance", bucketing)
        # Buckets of size 5 and 3; ideal is 4, so evenness is 5/4.
        assert counts.evenness() == pytest.approx(1.25)

    def test_no_objectives(self, small_relation: Relation) -> None:
        counts = count_relation_buckets(small_relation, "balance", Bucketing([2500.0]))
        assert counts.conditional == {}


class TestCountConditions:
    def test_counts_match_single_condition_path(self, small_relation: Relation) -> None:
        bucketing = Bucketing([1500.0, 5000.0])
        [card_loan_counts, withdrawal_counts] = count_conditions(
            small_relation,
            "balance",
            bucketing,
            [BooleanIs("card_loan"), BooleanIs("auto_withdrawal")],
        )
        assert list(card_loan_counts) == [1, 3, 0]
        assert list(withdrawal_counts) == [1, 2, 1]

    def test_total_never_exceeds_bucket_sizes(self, small_relation: Relation) -> None:
        bucketing = Bucketing([1500.0, 5000.0])
        counts = count_relation_buckets(
            small_relation,
            "balance",
            bucketing,
            objectives={"card_loan": BooleanIs("card_loan")},
        )
        assert np.all(counts.conditional["card_loan"] <= counts.sizes)


class TestMaskedBucketCounts:
    def test_matches_per_row_bincount(self) -> None:
        rng = np.random.default_rng(5)
        num_buckets = 17
        indices = rng.integers(0, num_buckets, size=400)
        masks = rng.random((9, 400)) < 0.4
        counts = masked_bucket_counts(indices, masks, num_buckets)
        assert counts.shape == (9, num_buckets)
        for row in range(masks.shape[0]):
            expected = np.bincount(indices[masks[row]], minlength=num_buckets)
            assert np.array_equal(counts[row], expected)

    def test_chunked_path_matches_unchunked(self, monkeypatch) -> None:
        rng = np.random.default_rng(6)
        num_buckets = 7
        indices = rng.integers(0, num_buckets, size=100)
        masks = rng.random((11, 100)) < 0.5
        full = masked_bucket_counts(indices, masks, num_buckets)
        # Force multiple tiny chunks through the same kernel.
        monkeypatch.setattr(counting_module, "_MASK_MATRIX_CHUNK_ELEMENTS", 150)
        chunked = masked_bucket_counts(indices, masks, num_buckets)
        assert np.array_equal(full, chunked)

    def test_offset_table_built_once_across_windows(self, monkeypatch) -> None:
        """The row-offset table is hoisted out of the window loop.

        The int32-narrowed kernel once rebuilt ``np.arange(rows) * M`` for
        every window of the chunked pass; the table is window-invariant, so
        one allocation must serve the whole call.
        """
        rng = np.random.default_rng(7)
        num_buckets = 5
        indices = rng.integers(0, num_buckets, size=60)
        masks = rng.random((13, 60)) < 0.5
        expected = masked_bucket_counts(indices, masks, num_buckets)
        calls = {"arange": 0}
        real_arange = np.arange

        def counting_arange(*args, **kwargs):
            calls["arange"] += 1
            return real_arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", counting_arange)
        # budget 120 / 60 tuples -> 2-row windows -> 7 windows over 13 rows.
        counts = masked_bucket_counts(
            indices, masks, num_buckets, chunk_elements=120
        )
        assert calls["arange"] == 1
        assert np.array_equal(counts, expected)

    def test_empty_mask_set(self) -> None:
        counts = masked_bucket_counts(
            np.zeros(10, dtype=np.int64), np.empty((0, 10), dtype=bool), 4
        )
        assert counts.shape == (0, 4)

    def test_shape_mismatch_rejected(self) -> None:
        with pytest.raises(BucketingError):
            masked_bucket_counts(
                np.zeros(10, dtype=np.int64), np.zeros((2, 9), dtype=bool), 4
            )
        with pytest.raises(BucketingError):
            masked_bucket_counts(
                np.zeros(10, dtype=np.int64), np.zeros(10, dtype=bool), 4
            )


class TestBitSlicedOracle:
    """The bit-sliced kernel against a plain per-row ``bincount``."""

    @settings(max_examples=120, deadline=None)
    @given(
        rows=st.sampled_from([0, 1, 3, 4, 5, 53]),
        cells=st.one_of(st.integers(1, 40), st.sampled_from([400, 1000, 1024])),
        num_tuples=st.one_of(st.sampled_from([0, 1]), st.integers(2, 300)),
        fill=st.sampled_from(["random", "all", "none"]),
        chunk_elements=st.sampled_from([None, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_row_bincount(
        self, rows, cells, num_tuples, fill, chunk_elements, seed
    ) -> None:
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, cells, size=num_tuples)
        if fill == "random":
            masks = rng.random((rows, num_tuples)) < rng.random((rows, 1))
        else:
            masks = np.full((rows, num_tuples), fill == "all")
        # chunk_elements=1 forces one 4-row group per bincount batch.
        counts = masked_bucket_counts(
            indices, masks, cells, chunk_elements=chunk_elements
        )
        assert counts.shape == (rows, cells)
        assert counts.dtype == np.int64
        for row in range(rows):
            assert np.array_equal(
                counts[row], np.bincount(indices[masks[row]], minlength=cells)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        num_tuples=st.one_of(st.sampled_from([0, 1]), st.integers(2, 400)),
        grid=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_plan_segments_share_packing(self, num_tuples, grid, seed) -> None:
        """Segments reading the same slots share one packing, never its counts."""
        rng = np.random.default_rng(seed)
        columns = (rng.normal(size=num_tuples), rng.normal(size=num_tuples))
        masks = rng.random((7, num_tuples)) < 0.5
        bucketings = [
            Bucketing(np.sort(rng.normal(size=grid[0] - 1))),
            Bucketing(np.sort(rng.normal(size=grid[1] - 1))),
        ]
        shared = (0, 2, 3, 5, 6)
        plan = counting_module.KernelPlan(
            axes=(
                counting_module.AxisSpec(column=0, cuts=bucketings[0].cuts),
                counting_module.AxisSpec(column=1, cuts=bucketings[1].cuts),
            ),
            segments=(
                counting_module.ValueSegment(axis=0, mask_slots=shared),
                counting_module.ValueSegment(axis=1, mask_slots=shared),
                counting_module.ValueSegment(axis=1, mask_slots=(4, 1)),
                counting_module.GridSegment(
                    row_axis=0, column_axis=1, mask_slots=shared
                ),
            ),
        )
        counted = counting_module.count_plan_chunk(plan, (columns, masks, None))
        rows_index = bucketings[0].assign(columns[0])
        columns_index = bucketings[1].assign(columns[1])
        cell_index = rows_index * grid[1] + columns_index
        expected = [
            (rows_index, grid[0], shared),
            (columns_index, grid[1], shared),
            (columns_index, grid[1], (4, 1)),
            (cell_index, grid[0] * grid[1], shared),
        ]
        for part, (indices, cells, slots) in zip(counted.parts, expected):
            assert part.num_tuples == num_tuples
            assert np.array_equal(
                part.sizes.reshape(-1), np.bincount(indices, minlength=cells)
            )
            conditional = part.conditional.reshape(len(slots), cells)
            for row, slot in enumerate(slots):
                assert np.array_equal(
                    conditional[row],
                    np.bincount(indices[masks[slot]], minlength=cells),
                )


class TestCountMany:
    def test_matches_per_condition_counting(self, small_relation: Relation) -> None:
        bucketing = Bucketing([1500.0, 5000.0])
        objectives = {
            "card_loan": BooleanIs("card_loan"),
            "auto_withdrawal": BooleanIs("auto_withdrawal"),
        }
        batched = count_many(small_relation, "balance", bucketing, objectives)
        for label, condition in objectives.items():
            single = count_relation_buckets(
                small_relation, "balance", bucketing, objectives={label: condition}
            )
            assert np.array_equal(batched.sizes, single.sizes)
            assert np.array_equal(batched.conditional[label], single.conditional[label])
            assert np.array_equal(
                batched.data_low, single.data_low, equal_nan=True
            )
            assert np.array_equal(
                batched.data_high, single.data_high, equal_nan=True
            )

    def test_no_objectives(self, small_relation: Relation) -> None:
        batched = count_many(small_relation, "balance", Bucketing([2500.0]), {})
        assert batched.conditional == {}
        assert batched.total == small_relation.num_tuples

    def test_mask_length_mismatch_rejected(self, small_relation: Relation) -> None:
        class BrokenCondition(BooleanIs):
            def mask(self, relation):
                return np.ones(3, dtype=bool)

        with pytest.raises(BucketingError):
            count_many(
                small_relation,
                "balance",
                Bucketing([2500.0]),
                {"broken": BrokenCondition("card_loan", True)},
            )


class TestChunkKernel:
    """The shared chunk kernel every counting path now reduces to."""

    def test_chunked_merge_equals_single_pass(self) -> None:
        rng = np.random.default_rng(17)
        values = rng.normal(size=5_000)
        cuts = np.quantile(values, [0.25, 0.5, 0.75])
        masks = rng.random((3, values.size)) < 0.4
        weights = rng.normal(size=(2, values.size))

        whole = counting_module.count_value_chunk(values, cuts, masks=masks, weights=weights)
        merged = counting_module.ChunkCounts.zeros(4, num_masks=3, num_weights=2)
        for start in range(0, values.size, 777):
            stop = start + 777
            merged.merge(
                counting_module.count_value_chunk(
                    values[start:stop],
                    cuts,
                    masks=masks[:, start:stop],
                    weights=weights[:, start:stop],
                )
            )
        assert np.array_equal(merged.sizes, whole.sizes)
        assert np.array_equal(merged.conditional, whole.conditional)
        assert np.allclose(merged.sums, whole.sums, rtol=1e-12)
        assert np.array_equal(merged.lows, whole.lows, equal_nan=True)
        assert np.array_equal(merged.highs, whole.highs, equal_nan=True)
        assert merged.num_tuples == whole.num_tuples == values.size

    def test_matches_bucketing_primitives(self) -> None:
        rng = np.random.default_rng(4)
        values = rng.uniform(size=2_000)
        bucketing = Bucketing(np.array([0.3, 0.6]))
        mask = values > 0.5
        part = counting_module.count_value_chunk(
            values, bucketing.cuts, masks=mask[None, :]
        )
        assert np.array_equal(part.sizes, bucketing.counts(values))
        assert np.array_equal(
            part.conditional[0], bucketing.conditional_counts(values, mask)
        )
        lows, highs = bucketing.data_bounds(values)
        assert np.array_equal(part.lows, lows, equal_nan=True)
        assert np.array_equal(part.highs, highs, equal_nan=True)

    def test_empty_chunk_is_identity(self) -> None:
        empty = counting_module.count_value_chunk(np.array([]), np.array([0.0]))
        merged = counting_module.ChunkCounts.zeros(2).merge(empty)
        assert merged.num_tuples == 0
        assert np.all(np.isnan(merged.lows))

    def test_shape_mismatch_rejected(self) -> None:
        with pytest.raises(BucketingError):
            counting_module.ChunkCounts.zeros(2).merge(counting_module.ChunkCounts.zeros(3))
        with pytest.raises(BucketingError):
            counting_module.count_value_chunk(
                np.array([1.0, 2.0]), np.array([0.0]), weights=np.array([1.0])
            )


class TestMaskMatrixTunables:
    def test_chunk_elements_keyword_preserves_results(self) -> None:
        rng = np.random.default_rng(5)
        indices = rng.integers(0, 7, size=500)
        masks = rng.random((9, 500)) < 0.4
        reference = counting_module.masked_bucket_counts(indices, masks, 7)
        for budget in (1, 3, 499, 500, 10_000):
            tight = counting_module.masked_bucket_counts(
                indices, masks, 7, chunk_elements=budget
            )
            assert np.array_equal(tight, reference)

    def test_chunk_elements_env_override(self, monkeypatch) -> None:
        rng = np.random.default_rng(6)
        indices = rng.integers(0, 5, size=200)
        masks = rng.random((4, 200)) < 0.5
        reference = counting_module.masked_bucket_counts(indices, masks, 5)
        monkeypatch.setenv("REPRO_MASK_MATRIX_CHUNK_ELEMENTS", "7")
        assert np.array_equal(
            counting_module.masked_bucket_counts(indices, masks, 5), reference
        )

    def test_nonpositive_budget_rejected(self, monkeypatch) -> None:
        with pytest.raises(BucketingError):
            counting_module.masked_bucket_counts(
                np.zeros(1, dtype=np.int64),
                np.ones((1, 1), dtype=bool),
                1,
                chunk_elements=0,
            )
        monkeypatch.setenv("REPRO_MASK_MATRIX_CHUNK_ELEMENTS", "-3")
        with pytest.raises(BucketingError):
            counting_module.masked_bucket_counts(
                np.zeros(1, dtype=np.int64), np.ones((1, 1), dtype=bool), 1
            )

    def test_malformed_budget_env_is_typed(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_MASK_MATRIX_CHUNK_ELEMENTS", "big")
        with pytest.raises(
            BucketingError, match="REPRO_MASK_MATRIX_CHUNK_ELEMENTS.*'big'"
        ):
            counting_module.masked_bucket_counts(
                np.zeros(1, dtype=np.int64), np.ones((1, 1), dtype=bool), 1
            )

    def test_offset_dtype_narrows_when_windows_fit(self) -> None:
        assert counting_module._offset_dtype(1_000) is np.int32
        assert counting_module._offset_dtype(np.iinfo(np.int32).max + 1) is np.int64


class TestPlanKernel:
    """The fused plan kernel vs the single-request kernels, bit for bit."""

    @staticmethod
    def _payload(seed: int = 0):
        rng = np.random.default_rng(seed)
        n = 1_200
        balance = rng.normal(size=n)
        age = rng.uniform(20, 70, size=n)
        masks = np.vstack(
            [
                rng.random(n) < 0.3,
                rng.random(n) < 0.6,
                rng.random(n) < 0.15,
            ]
        )
        weights = np.vstack([rng.normal(size=n) * 10.0])
        balance_cuts = np.quantile(balance, [0.25, 0.5, 0.75])
        age_cuts = np.quantile(age, [0.2, 0.4, 0.6, 0.8])
        return balance, age, masks, weights, balance_cuts, age_cuts

    def test_mixed_plan_equals_single_request_kernels(self) -> None:
        balance, age, masks, weights, balance_cuts, age_cuts = self._payload(3)
        plan = counting_module.KernelPlan(
            axes=(
                counting_module.AxisSpec(column=0, cuts=balance_cuts),
                counting_module.AxisSpec(column=1, cuts=age_cuts),
            ),
            segments=(
                counting_module.ValueSegment(
                    axis=0, mask_slots=(0, 1), weight_slots=(0,)
                ),
                counting_module.ValueSegment(
                    axis=1,
                    mask_slots=(2, 0),
                    bound_mask_slots=(2,),
                    with_bounds=False,
                ),
                counting_module.GridSegment(
                    row_axis=1, column_axis=0, mask_slots=(1,)
                ),
            ),
        )
        result = counting_module.count_plan_chunk(plan, ((balance, age), masks, weights))
        assert len(result.parts) == 3

        first = counting_module.count_value_chunk(
            balance, balance_cuts, masks=masks[:2], weights=weights
        )
        assert np.array_equal(result.parts[0].sizes, first.sizes)
        assert np.array_equal(result.parts[0].conditional, first.conditional)
        assert np.array_equal(result.parts[0].sums, first.sums)
        assert np.array_equal(result.parts[0].lows, first.lows, equal_nan=True)
        assert np.array_equal(result.parts[0].highs, first.highs, equal_nan=True)

        second = counting_module.count_value_chunk(
            age,
            age_cuts,
            masks=masks[[2, 0]],
            with_bounds=False,
            bound_masks=masks[[2]],
        )
        assert np.array_equal(result.parts[1].sizes, second.sizes)
        assert np.array_equal(result.parts[1].conditional, second.conditional)
        assert np.all(np.isnan(result.parts[1].lows))
        assert np.array_equal(
            result.parts[1].mask_lows, second.mask_lows, equal_nan=True
        )
        assert np.array_equal(
            result.parts[1].mask_highs, second.mask_highs, equal_nan=True
        )

        third = counting_module.count_grid_chunk(
            age, balance, age_cuts, balance_cuts, masks=masks[[1]]
        )
        assert np.array_equal(result.parts[2].sizes, third.sizes)
        assert np.array_equal(result.parts[2].conditional, third.conditional)
        assert np.array_equal(result.parts[2].row_lows, third.row_lows, equal_nan=True)
        assert np.array_equal(
            result.parts[2].column_highs, third.column_highs, equal_nan=True
        )

    def test_weighted_sums_bit_identical_under_fusion(self) -> None:
        """Fused §5 sums accumulate per window in the standalone order."""
        balance, age, masks, weights, balance_cuts, age_cuts = self._payload(9)
        plan = counting_module.KernelPlan(
            axes=(
                counting_module.AxisSpec(column=0, cuts=balance_cuts),
                counting_module.AxisSpec(column=1, cuts=age_cuts),
            ),
            segments=(
                counting_module.ValueSegment(axis=0, weight_slots=(0,)),
                counting_module.ValueSegment(axis=1, weight_slots=(0,)),
            ),
        )
        result = counting_module.count_plan_chunk(plan, ((balance, age), masks, weights))
        for axis_values, cuts, part in (
            (balance, balance_cuts, result.parts[0]),
            (age, age_cuts, result.parts[1]),
        ):
            single = counting_module.count_value_chunk(
                axis_values, cuts, weights=weights
            )
            assert np.array_equal(part.sums, single.sums)

    def test_plan_zeros_merge_identity(self) -> None:
        balance, age, masks, weights, balance_cuts, age_cuts = self._payload(1)
        plan = counting_module.KernelPlan(
            axes=(counting_module.AxisSpec(column=0, cuts=balance_cuts),),
            segments=(
                counting_module.ValueSegment(axis=0, mask_slots=(0,)),
            ),
        )
        counted = counting_module.count_plan_chunk(plan, ((balance,), masks, None))
        merged = plan.zeros().merge(counted)
        assert np.array_equal(merged.parts[0].sizes, counted.parts[0].sizes)
        with pytest.raises(BucketingError):
            plan.zeros().merge(counting_module.PlanChunkCounts([]))

    def test_bit_sliced_counts_batches_match(self, monkeypatch) -> None:
        """Tiny element budgets change batching, never the counts."""
        rng = np.random.default_rng(12)
        values = rng.normal(size=400)
        masks = rng.random((9, 400)) < 0.5
        bucketings = [
            Bucketing(np.quantile(values, np.linspace(0, 1, cells + 1)[1:-1]))
            for cells in (3, 5, 8)
        ]
        plan = counting_module.KernelPlan(
            axes=tuple(
                counting_module.AxisSpec(column=0, cuts=bucketing.cuts)
                for bucketing in bucketings
            ),
            segments=tuple(
                counting_module.ValueSegment(axis=axis, mask_slots=tuple(range(9)))
                for axis in range(3)
            ),
        )
        # 401 elements hold one 400-tuple key row but never its histogram
        # too: one group per batch, three batches per segment.
        for budget in ("1", "401", "100000"):
            monkeypatch.setenv("REPRO_MASK_MATRIX_CHUNK_ELEMENTS", budget)
            counted = counting_module.count_plan_chunk(plan, ((values,), masks, None))
            for part, bucketing in zip(counted.parts, bucketings):
                indices = bucketing.assign(values)
                assert np.array_equal(
                    part.sizes, np.bincount(indices, minlength=bucketing.num_buckets)
                )
                for row in range(9):
                    assert np.array_equal(
                        part.conditional[row],
                        np.bincount(
                            indices[masks[row]], minlength=bucketing.num_buckets
                        ),
                    )


class TestPlanKernelGuards:
    def test_window_budget_accounts_for_cells(self) -> None:
        """Many-cell sparse windows must not fuse into one giant bincount."""
        rng = np.random.default_rng(4)
        cells = 50_000
        entries = []
        for _ in range(6):
            indices = rng.integers(0, cells, size=100)
            entries.append((indices, None, cells))
        reference = [
            np.bincount(indices, minlength=cells) for indices, _, cells in entries
        ]
        # An 800k-slot nibble histogram exceeds the budget on its own, so
        # the kernel falls back to one group (four rows) per bincount
        # instead of concatenating a multi-million-slot window.
        masks = rng.random((9, 100)) < 0.5
        counted = counting_module.masked_bucket_counts(
            entries[0][0], masks, cells, chunk_elements=60_000
        )
        for row in range(9):
            assert np.array_equal(
                counted[row], np.bincount(entries[0][0][masks[row]], minlength=cells)
            )
        weighted = counting_module._fused_weighted_sums(
            [
                (indices, np.ones(indices.shape[0]), cells)
                for indices, _, cells in entries
            ],
            chunk_elements=60_000,
        )
        for got, expected in zip(weighted, reference):
            assert np.array_equal(got, expected.astype(np.float64))

    def test_grid_segment_requires_axis_bounds(self) -> None:
        rng = np.random.default_rng(2)
        values = rng.normal(size=50)
        cuts = np.quantile(values, [0.5])
        plan = counting_module.KernelPlan(
            axes=(
                counting_module.AxisSpec(column=0, cuts=cuts, with_bounds=False),
                counting_module.AxisSpec(column=1, cuts=cuts),
            ),
            segments=(
                counting_module.GridSegment(row_axis=0, column_axis=1),
            ),
        )
        with pytest.raises(BucketingError):
            counting_module.count_plan_chunk(plan, ((values, values), None, None))


class TestPayloadValidation:
    """A mis-shaped payload is a typed error, never a silent broadcast."""

    @staticmethod
    def _grid_plan(mask_slots=(0,)):
        return counting_module.KernelPlan(
            axes=(
                counting_module.AxisSpec(column=0, cuts=np.array([0.5])),
                counting_module.AxisSpec(column=1, cuts=np.array([0.5])),
            ),
            segments=(
                counting_module.GridSegment(
                    row_axis=0, column_axis=1, mask_slots=mask_slots
                ),
            ),
        )

    @staticmethod
    def _value_plan(**segment):
        return counting_module.KernelPlan(
            axes=(counting_module.AxisSpec(column=0, cuts=np.array([0.5])),),
            segments=(counting_module.ValueSegment(axis=0, **segment),),
        )

    def test_short_axis_column_rejected(self) -> None:
        rows = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(BucketingError, match="axis column 1"):
            counting_module.count_plan_chunk(
                self._grid_plan(mask_slots=()), ((rows, np.array([0.0])), None, None)
            )

    def test_short_mask_row_rejected(self) -> None:
        values = np.array([0.0, 0.0, 1.0, 1.0])
        for masks in (np.ones((1, 3), dtype=bool), np.ones((1, 1), dtype=bool)):
            with pytest.raises(BucketingError, match="mask matrix"):
                counting_module.count_plan_chunk(
                    self._grid_plan(), ((values, values), masks, None)
                )

    def test_missing_mask_matrix_rejected(self) -> None:
        values = np.array([0.0, 1.0])
        with pytest.raises(BucketingError, match="no mask matrix"):
            counting_module.count_plan_chunk(
                self._value_plan(mask_slots=(0,)), ((values,), None, None)
            )
        with pytest.raises(BucketingError, match="no mask matrix"):
            counting_module.count_plan_chunk(
                self._value_plan(bound_mask_slots=(0,)), ((values,), None, None)
            )

    def test_short_weight_row_rejected(self) -> None:
        values = np.array([0.0, 1.0, 2.0])
        with pytest.raises(BucketingError, match="weight matrix"):
            counting_module.count_plan_chunk(
                self._value_plan(weight_slots=(0,)),
                ((values,), None, np.ones((1, 1))),
            )
        with pytest.raises(BucketingError, match="no weight matrix"):
            counting_module.count_plan_chunk(
                self._value_plan(weight_slots=(0,)), ((values,), None, None)
            )

    def test_slot_past_the_matrix_rejected(self) -> None:
        values = np.array([0.0, 1.0])
        with pytest.raises(BucketingError, match="2 mask rows"):
            counting_module.count_plan_chunk(
                self._value_plan(mask_slots=(0, 2)),
                ((values,), np.ones((2, 2), dtype=bool), None),
            )
        with pytest.raises(BucketingError, match="column slot 1"):
            counting_module.count_plan_chunk(
                self._grid_plan(mask_slots=()), ((values,), None, None)
            )

    def test_well_formed_payload_counts(self) -> None:
        rows = np.array([0.0, 0.0, 1.0, 1.0])
        columns = np.array([0.0, 1.0, 1.0, 1.0])
        masks = np.array([[True, False, True, True]])
        part = counting_module.count_plan_chunk(
            self._grid_plan(), ((rows, columns), masks, None)
        ).parts[0]
        assert part.sizes.tolist() == [[1, 1], [0, 2]]
        assert part.conditional.tolist() == [[[1, 0], [0, 2]]]
        assert part.num_tuples == 4
