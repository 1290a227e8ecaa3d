"""Oracle tests for the stacked batch solvers of ``repro.core.fastpath``.

The contract under test: ``fast_maximize_ratio_many`` /
``fast_maximize_support_many`` answer every row of a ``(N, M)`` stacked
profile exactly as compacting the row's zero-size buckets away, running the
scalar solver (fast or reference — themselves bit-identical), and mapping
the winning indices back to the full row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    fast_maximize_ratio,
    fast_maximize_ratio_many,
    fast_maximize_support,
    fast_maximize_support_many,
    maximize_ratio_reference,
    maximize_support_reference,
)
from repro.exceptions import ProfileError


def _key(selection):
    if selection is None:
        return None
    return (
        selection.start,
        selection.end,
        selection.support_count,
        selection.objective_value,
        selection.total_count,
    )


def _mapped_key(selection, kept: np.ndarray):
    """A compact-space selection re-expressed in full-row indices."""
    if selection is None:
        return None
    return (
        int(kept[selection.start]),
        int(kept[selection.end]),
        selection.support_count,
        selection.objective_value,
        selection.total_count,
    )


def _random_stack(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    rows = int(rng.integers(1, 7))
    buckets = int(rng.integers(1, 12))
    sizes = rng.integers(0, 7, size=(rows, buckets)).astype(np.float64)
    sizes[rng.random((rows, buckets)) < 0.35] = 0.0
    values = np.minimum(
        rng.integers(0, 7, size=(rows, buckets)).astype(np.float64), sizes
    )
    return sizes, values


class TestMaximizeRatioMany:
    @pytest.mark.parametrize("seed", range(60))
    def test_rows_match_scalar_solvers(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        sizes, values = _random_stack(rng)
        min_count = float(rng.integers(0, 10))
        selections = fast_maximize_ratio_many(sizes, values, min_count)
        assert len(selections) == sizes.shape[0]
        for row in range(sizes.shape[0]):
            kept = np.flatnonzero(sizes[row] > 0)
            if kept.size == 0:
                assert selections[row] is None
                continue
            total = float(sizes[row].sum())
            fast = fast_maximize_ratio(
                sizes[row][kept], values[row][kept], min_count, total
            )
            reference = maximize_ratio_reference(
                sizes[row][kept], values[row][kept], min_count, total
            )
            assert _mapped_key(fast, kept) == _key(selections[row])
            assert _mapped_key(reference, kept) == _key(selections[row])

    def test_selected_indices_point_at_nonempty_buckets(self) -> None:
        sizes = np.array([[0.0, 3.0, 0.0, 2.0, 0.0]])
        values = np.array([[0.0, 2.0, 0.0, 1.0, 0.0]])
        [selection] = fast_maximize_ratio_many(sizes, values, 5.0)
        assert (selection.start, selection.end) == (1, 3)
        assert selection.support_count == 5.0

    def test_per_row_thresholds_and_totals(self) -> None:
        sizes = np.array([[4.0, 4.0], [4.0, 4.0]])
        values = np.array([[4.0, 0.0], [4.0, 0.0]])
        strict, lax = fast_maximize_ratio_many(
            sizes, values, np.array([8.0, 4.0]), total=np.array([100.0, 10.0])
        )
        assert (strict.start, strict.end) == (0, 1)
        assert (lax.start, lax.end) == (0, 0)
        assert strict.total_count == 100.0
        assert lax.total_count == 10.0

    def test_rejects_bad_shapes(self) -> None:
        with pytest.raises(ProfileError):
            fast_maximize_ratio_many(np.ones(3), np.ones(3), 1.0)
        with pytest.raises(ProfileError):
            fast_maximize_ratio_many(np.ones((2, 3)), np.ones((2, 2)), 1.0)
        with pytest.raises(ProfileError):
            fast_maximize_ratio_many(-np.ones((1, 2)), np.ones((1, 2)), 1.0)


class TestMaximizeSupportMany:
    @pytest.mark.parametrize("seed", range(60))
    def test_rows_match_scalar_solvers(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        sizes, values = _random_stack(rng)
        min_ratio = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
        selections = fast_maximize_support_many(sizes, values, min_ratio)
        for row in range(sizes.shape[0]):
            kept = np.flatnonzero(sizes[row] > 0)
            if kept.size == 0:
                assert selections[row] is None
                continue
            total = float(sizes[row].sum())
            fast = fast_maximize_support(
                sizes[row][kept], values[row][kept], min_ratio, total
            )
            reference = maximize_support_reference(
                sizes[row][kept], values[row][kept], min_ratio, total
            )
            assert _mapped_key(fast, kept) == _key(selections[row])
            assert _mapped_key(reference, kept) == _key(selections[row])

    def test_zero_only_rows_are_infeasible(self) -> None:
        sizes = np.zeros((2, 4))
        values = np.zeros((2, 4))
        assert fast_maximize_support_many(sizes, values, 0.5) == [None, None]

    def test_snaps_range_onto_nonempty_buckets(self) -> None:
        # The confident range is the middle block; surrounding zero buckets
        # must not leak into the reported indices.
        sizes = np.array([[0.0, 2.0, 0.0, 2.0, 0.0]])
        values = np.array([[0.0, 2.0, 0.0, 2.0, 0.0]])
        [selection] = fast_maximize_support_many(sizes, values, 1.0)
        assert (selection.start, selection.end) == (1, 3)
        assert selection.support_count == 4.0

    def test_chunked_rows_equal_unchunked(self, monkeypatch) -> None:
        import repro.core.fastpath as fastpath

        rng = np.random.default_rng(123)
        sizes, values = _random_stack(rng)
        expected_support = fast_maximize_support_many(sizes, values, 0.5)
        expected_ratio = fast_maximize_ratio_many(sizes, values, 2.0)
        monkeypatch.setattr(fastpath, "_SOLVE_BLOCK_POINTS", 1)
        assert [
            _key(selection)
            for selection in fast_maximize_support_many(sizes, values, 0.5)
        ] == [_key(selection) for selection in expected_support]
        assert [
            _key(selection)
            for selection in fast_maximize_ratio_many(sizes, values, 2.0)
        ] == [_key(selection) for selection in expected_ratio]


def _integer_stack(
    rng: np.random.Generator, rows: int, buckets: int
) -> tuple[np.ndarray, np.ndarray]:
    """Catalog-shaped integer profiles: ~equi-depth sizes, drifting rates."""
    sizes = rng.integers(1, 200, size=(rows, buckets)).astype(np.float64)
    rates = np.clip(
        rng.random((rows, 1)) + 0.3 * rng.standard_normal((rows, buckets)), 0, 1
    )
    values = rng.binomial(sizes.astype(np.int64), rates).astype(np.float64)
    return sizes, values


def _assert_rows_match_oracles(sizes, values, min_counts) -> None:
    """Every stacked row equals the scalar fast sweep and Algorithm 4.2."""
    selections = fast_maximize_ratio_many(sizes, values, min_counts)
    min_counts = np.broadcast_to(min_counts, (sizes.shape[0],))
    for row, selection in enumerate(selections):
        total = float(sizes[row].sum())
        args = (sizes[row], values[row], float(min_counts[row]), total)
        assert _key(selection) == _key(fast_maximize_ratio(*args))
        assert _key(selection) == _key(maximize_ratio_reference(*args))


class TestWideRowOracle:
    """Catalog-width rows: the parametric sweep against both scalar solvers."""

    @pytest.mark.parametrize("buckets", [200, 1000, 1500])
    def test_wide_integer_rows(self, buckets: int) -> None:
        rng = np.random.default_rng(buckets)
        sizes, values = _integer_stack(rng, 6, buckets)
        fractions = np.array([0.0, 0.01, 0.05, 0.1, 0.5, 0.9])
        _assert_rows_match_oracles(sizes, values, fractions * sizes.sum(axis=1))

    def test_wide_rows_with_empty_buckets_match_compacted_rows(self) -> None:
        rng = np.random.default_rng(5)
        sizes, values = _integer_stack(rng, 5, 1000)
        empty = rng.random(sizes.shape) < 0.3
        sizes[empty] = 0.0
        values[empty] = 0.0
        min_count = 0.1 * float(sizes.sum(axis=1).min())
        selections = fast_maximize_ratio_many(sizes, values, min_count)
        for row, selection in enumerate(selections):
            kept = np.flatnonzero(sizes[row] > 0)
            compact = fast_maximize_ratio(
                sizes[row][kept], values[row][kept], min_count,
                float(sizes[row].sum()),
            )
            assert _mapped_key(compact, kept) == _key(selection)

    def test_tie_heavy_rows(self) -> None:
        rng = np.random.default_rng(17)
        buckets = 300
        sizes = np.full((6, buckets), 4.0)
        values = np.stack(
            [
                np.full(buckets, 2.0),  # every range has the same ratio
                np.zeros(buckets),  # every range has ratio zero
                sizes[2],  # every range is fully confident
                np.tile([4.0, 0.0], buckets // 2),  # alternating 1, 0
                np.tile([4.0, 4.0, 0.0], buckets // 3),  # many equal-ratio runs
                rng.integers(0, 2, buckets) * 4.0,  # random 0/1 buckets
            ]
        )
        for fraction in (0.0, 0.01, 0.2, 1.0):
            _assert_rows_match_oracles(
                sizes, values, fraction * sizes.sum(axis=1)
            )

    def test_small_tie_heavy_integer_stacks(self) -> None:
        rng = np.random.default_rng(99)
        for _ in range(300):
            rows, buckets = int(rng.integers(1, 6)), int(rng.integers(1, 40))
            sizes = rng.integers(1, 4, size=(rows, buckets)).astype(np.float64)
            values = np.round(sizes * rng.choice([0.0, 0.5, 1.0], size=sizes.shape))
            min_counts = rng.integers(0, 3 * buckets, size=rows).astype(np.float64)
            _assert_rows_match_oracles(sizes, values, min_counts)

    def test_min_support_of_zero_and_of_the_row_total(self) -> None:
        rng = np.random.default_rng(23)
        sizes, values = _integer_stack(rng, 4, 1000)
        totals = sizes.sum(axis=1)
        min_counts = np.array([0.0, totals[1], 0.0, totals[3]])
        _assert_rows_match_oracles(sizes, values, min_counts)
        selections = fast_maximize_ratio_many(sizes, values, min_counts)
        for row in (1, 3):  # only the whole row reaches its own total
            assert (selections[row].start, selections[row].end) == (0, 999)

    def test_infeasible_rows_return_none(self) -> None:
        rng = np.random.default_rng(29)
        sizes, values = _integer_stack(rng, 4, 1000)
        sizes[2] = 0.0
        values[2] = 0.0
        totals = sizes.sum(axis=1)
        min_counts = np.array([totals[0] + 1, 0.5 * totals[1], 1.0, totals[3] + 0.5])
        selections = fast_maximize_ratio_many(sizes, values, min_counts)
        assert selections[0] is None
        assert selections[1] is not None
        assert selections[2] is None  # no tuple at all
        assert selections[3] is None

    def test_per_row_min_ratio_support_rows(self) -> None:
        rng = np.random.default_rng(31)
        sizes, values = _integer_stack(rng, 5, 1000)
        ratios = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        selections = fast_maximize_support_many(sizes, values, ratios)
        for row, selection in enumerate(selections):
            total = float(sizes[row].sum())
            args = (sizes[row], values[row], float(ratios[row]), total)
            assert _key(selection) == _key(fast_maximize_support(*args))
            assert _key(selection) == _key(maximize_support_reference(*args))

    def test_real_valued_rows_stay_ample_and_optimal(self) -> None:
        # Outside the exact-product envelope no range may have exactly zero
        # gain at the final ratio; the sweep must still return its best
        # ample range, whose ratio matches the scalar sweep's.
        rng = np.random.default_rng(41)
        sizes = rng.random((40, 150)) * 1e3
        values = rng.standard_normal((40, 150)) * 1e6
        min_counts = rng.random(40) * 0.5 * sizes.sum(axis=1)
        selections = fast_maximize_ratio_many(sizes, values, min_counts)
        for row, selection in enumerate(selections):
            scalar = fast_maximize_ratio(sizes[row], values[row], min_counts[row])
            assert selection.end >= selection.start
            assert selection.support_count >= min_counts[row]
            assert selection.ratio == pytest.approx(scalar.ratio, rel=1e-9)
