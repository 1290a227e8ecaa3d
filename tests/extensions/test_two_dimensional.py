"""Tests for the two-dimensional rectangle extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bucketing import SortingEquiDepthBucketizer
from repro.core import RuleKind
from repro.exceptions import OptimizationError
from repro.extensions import GridProfile, mine_rectangle_rule
from repro.extensions.two_dimensional import _best_rectangle
from repro.pipeline import CSVSource, GridProfileBuilder, RelationSource
from repro.relation import Attribute, BooleanIs, Relation, Schema
from repro.relation.io import write_csv


@pytest.fixture(scope="module")
def planted_2d_relation() -> Relation:
    """Objective likely only inside the square [30,60] x [40,70]."""
    rng = np.random.default_rng(11)
    size = 40_000
    x = rng.uniform(0.0, 100.0, size)
    y = rng.uniform(0.0, 100.0, size)
    inside = (x >= 30.0) & (x <= 60.0) & (y >= 40.0) & (y <= 70.0)
    target = rng.random(size) < np.where(inside, 0.85, 0.05)
    schema = Schema.of(
        Attribute.numeric("age"),
        Attribute.numeric("balance"),
        Attribute.boolean("card_loan"),
    )
    return Relation.from_columns(schema, {"age": x, "balance": y, "card_loan": target})


class TestGridProfile:
    def test_counts_cover_every_tuple(self, planted_2d_relation: Relation) -> None:
        bucketizer = SortingEquiDepthBucketizer()
        rows = bucketizer.build(planted_2d_relation.numeric_column("age"), 10)
        columns = bucketizer.build(planted_2d_relation.numeric_column("balance"), 12)
        profile = GridProfile.from_relation(
            planted_2d_relation, "age", "balance", BooleanIs("card_loan"), rows, columns
        )
        assert profile.shape == (10, 12)
        assert profile.sizes.sum() == planted_2d_relation.num_tuples
        assert np.all(profile.values <= profile.sizes)


class TestMineRectangleRule:
    def test_confidence_rectangle_recovers_planted_square(
        self, planted_2d_relation: Relation
    ) -> None:
        rule = mine_rectangle_rule(
            planted_2d_relation,
            "age",
            "balance",
            BooleanIs("card_loan"),
            kind=RuleKind.OPTIMIZED_CONFIDENCE,
            min_support=0.05,
            grid=(20, 20),
        )
        assert rule is not None
        assert rule.support >= 0.05
        assert rule.confidence > 0.6
        # The mined rectangle must essentially sit inside the planted square.
        assert rule.row_low >= 25.0 and rule.row_high <= 65.0
        assert rule.column_low >= 35.0 and rule.column_high <= 75.0

    def test_support_rectangle_contains_planted_square(
        self, planted_2d_relation: Relation
    ) -> None:
        rule = mine_rectangle_rule(
            planted_2d_relation,
            "age",
            "balance",
            BooleanIs("card_loan"),
            kind=RuleKind.OPTIMIZED_SUPPORT,
            min_confidence=0.7,
            grid=(20, 20),
        )
        assert rule is not None
        assert rule.confidence >= 0.7
        # The planted square holds 9% of the tuples; the optimized-support
        # rectangle must capture most of it.
        assert rule.support > 0.05

    def test_region_condition_counts_match_reported_measures(
        self, planted_2d_relation: Relation
    ) -> None:
        rule = mine_rectangle_rule(
            planted_2d_relation,
            "age",
            "balance",
            BooleanIs("card_loan"),
            min_support=0.05,
            grid=(15, 15),
        )
        region = rule.region_condition()
        measured_support = planted_2d_relation.support(region)
        measured_confidence = planted_2d_relation.confidence(region, BooleanIs("card_loan"))
        assert measured_support == pytest.approx(rule.support, abs=0.02)
        assert measured_confidence == pytest.approx(rule.confidence, abs=0.05)

    def test_objective_accepts_attribute_name(self, planted_2d_relation: Relation) -> None:
        named = mine_rectangle_rule(
            planted_2d_relation, "age", "balance", "card_loan",
            min_support=0.05, grid=(10, 10),
        )
        explicit = mine_rectangle_rule(
            planted_2d_relation, "age", "balance", BooleanIs("card_loan", True),
            min_support=0.05, grid=(10, 10),
        )
        assert named == explicit

    def test_infeasible_thresholds_return_none(self, planted_2d_relation: Relation) -> None:
        rule = mine_rectangle_rule(
            planted_2d_relation,
            "age",
            "balance",
            BooleanIs("card_loan"),
            kind=RuleKind.OPTIMIZED_SUPPORT,
            min_confidence=0.999,
            grid=(10, 10),
        )
        assert rule is None

    def test_invalid_parameters_rejected(self, planted_2d_relation: Relation) -> None:
        with pytest.raises(OptimizationError):
            mine_rectangle_rule(
                planted_2d_relation,
                "age",
                "balance",
                BooleanIs("card_loan"),
                grid=(0, 10),
            )
        with pytest.raises(OptimizationError):
            mine_rectangle_rule(
                planted_2d_relation,
                "age",
                "age",
                BooleanIs("card_loan"),
                grid=(5, 5),
            )
        with pytest.raises(OptimizationError):
            mine_rectangle_rule(
                planted_2d_relation,
                "age",
                "balance",
                BooleanIs("card_loan"),
                kind=RuleKind.MAXIMUM_AVERAGE,
                grid=(5, 5),
            )
        with pytest.raises(OptimizationError):
            mine_rectangle_rule(
                planted_2d_relation,
                "age",
                "balance",
                BooleanIs("card_loan"),
                engine="bogus",
                grid=(5, 5),
            )

    def test_rendering(self, planted_2d_relation: Relation) -> None:
        rule = mine_rectangle_rule(
            planted_2d_relation,
            "age",
            "balance",
            BooleanIs("card_loan"),
            min_support=0.05,
            grid=(10, 10),
        )
        text = str(rule)
        assert "(age in [" in text and "(balance in [" in text


class TestEngineParity:
    @pytest.mark.parametrize("kind", [RuleKind.OPTIMIZED_CONFIDENCE, RuleKind.OPTIMIZED_SUPPORT])
    def test_fast_equals_reference_on_planted_data(
        self, planted_2d_relation: Relation, kind: RuleKind
    ) -> None:
        kwargs = dict(
            kind=kind, min_support=0.05, min_confidence=0.6, grid=(17, 13)
        )
        fast = mine_rectangle_rule(
            planted_2d_relation, "age", "balance", BooleanIs("card_loan"),
            engine="fast", **kwargs,
        )
        reference = mine_rectangle_rule(
            planted_2d_relation, "age", "balance", BooleanIs("card_loan"),
            engine="reference", **kwargs,
        )
        assert fast == reference


def _grid_from_counts(sizes: np.ndarray, values: np.ndarray) -> GridProfile:
    """A synthetic grid profile whose bounds are the bucket indices."""
    rows, columns = sizes.shape
    return GridProfile(
        row_attribute="A",
        column_attribute="B",
        objective_label="C",
        sizes=sizes.astype(np.float64),
        values=values.astype(np.float64),
        row_lows=np.arange(rows, dtype=np.float64),
        row_highs=np.arange(rows, dtype=np.float64),
        column_lows=np.arange(columns, dtype=np.float64),
        column_highs=np.arange(columns, dtype=np.float64),
        total=float(sizes.sum()),
    )


def _brute_force_rectangle(
    profile: GridProfile,
    kind: RuleKind,
    min_support: float,
    min_confidence: float,
):
    """Enumerate every rectangle in band order and keep the canonical best.

    Returns the ``(row_start, row_end, column_start, column_end, support,
    confidence)`` key of the winner, or ``None``, with exactly the search's
    tie-breaking: lexicographic quality key, first band then smallest column
    start on ties.
    """
    rows, columns = profile.shape
    total = profile.total
    best = None
    best_key = None
    for r1 in range(rows):
        for r2 in range(r1, rows):
            band_sizes = profile.sizes[r1 : r2 + 1].sum(axis=0)
            band_values = profile.values[r1 : r2 + 1].sum(axis=0)
            for c1 in range(columns):
                if band_sizes[c1] == 0:
                    continue
                for c2 in range(c1, columns):
                    if band_sizes[c2] == 0:
                        continue
                    count = float(band_sizes[c1 : c2 + 1].sum())
                    value = float(band_values[c1 : c2 + 1].sum())
                    if kind is RuleKind.OPTIMIZED_CONFIDENCE:
                        if count < min_support * total:
                            continue
                        key = (value / count, count)
                    else:
                        if value < min_confidence * count:
                            continue
                        key = (count, value / count)
                    if best_key is None or key > best_key:
                        best_key = key
                        best = (r1, r2, c1, c2, count / total, value / count)
    return best


class TestBruteForceOracle:
    """fast == reference == brute force on exhaustive tiny grids."""

    @pytest.mark.parametrize("kind", [RuleKind.OPTIMIZED_CONFIDENCE, RuleKind.OPTIMIZED_SUPPORT])
    @pytest.mark.parametrize("seed", range(25))
    def test_engines_match_brute_force(self, kind: RuleKind, seed: int) -> None:
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 9))
        columns = int(rng.integers(1, 9))
        # Random integer cell counts with plenty of zeros (sparse bands).
        sizes = rng.integers(0, 5, size=(rows, columns))
        sizes[rng.random((rows, columns)) < 0.3] = 0
        values = np.minimum(rng.integers(0, 5, size=(rows, columns)), sizes)
        if sizes.sum() == 0:
            sizes[0, 0] = 1
            values[0, 0] = 1
        profile = _grid_from_counts(sizes, values)
        min_support = float(rng.choice([0.05, 0.1, 0.25]))
        # Exactly representable thresholds: the cumulative-gain and direct
        # formulations of the confidence test then agree bit for bit.
        min_confidence = float(rng.choice([0.25, 0.5, 0.75]))

        fast = _best_rectangle(profile, kind, min_support, min_confidence, "fast")
        reference = _best_rectangle(profile, kind, min_support, min_confidence, "reference")
        brute = _brute_force_rectangle(profile, kind, min_support, min_confidence)

        def key(rule):
            if rule is None:
                return None
            return (
                rule.row_start,
                rule.row_end,
                rule.column_start,
                rule.column_end,
                rule.support,
                rule.confidence,
            )

        assert key(fast) == key(reference)
        assert key(fast) == brute


class TestWideGrid:
    @pytest.mark.parametrize("kind", [RuleKind.OPTIMIZED_CONFIDENCE, RuleKind.OPTIMIZED_SUPPORT])
    def test_wider_than_192_columns_equals_reference(
        self, planted_2d_relation: Relation, kind: RuleKind
    ) -> None:
        """A grid past the old scalar-band width threshold stays on the
        stacked solvers and is still bit-identical to the per-band oracle."""
        kwargs = dict(kind=kind, min_support=0.05, min_confidence=0.6, grid=(6, 240))
        stacked = mine_rectangle_rule(
            planted_2d_relation, "age", "balance", BooleanIs("card_loan"), **kwargs
        )
        reference = mine_rectangle_rule(
            planted_2d_relation, "age", "balance", BooleanIs("card_loan"),
            engine="reference", **kwargs,
        )
        assert stacked is not None
        assert stacked == reference


class TestBandBlocking:
    @pytest.mark.parametrize("kind", [RuleKind.OPTIMIZED_CONFIDENCE, RuleKind.OPTIMIZED_SUPPORT])
    def test_block_size_never_affects_the_result(
        self, planted_2d_relation: Relation, kind: RuleKind, monkeypatch
    ) -> None:
        """The bounded-memory band blocks are a pure implementation detail."""
        import repro.extensions.two_dimensional as two_dimensional

        kwargs = dict(kind=kind, min_support=0.05, min_confidence=0.6, grid=(11, 9))
        whole = mine_rectangle_rule(
            planted_2d_relation, "age", "balance", BooleanIs("card_loan"), **kwargs
        )
        monkeypatch.setattr(two_dimensional, "_BAND_BLOCK_ELEMENTS", 1)
        one_band_blocks = mine_rectangle_rule(
            planted_2d_relation, "age", "balance", BooleanIs("card_loan"), **kwargs
        )
        assert whole == one_band_blocks


class TestStreamingRectangles:
    def test_source_paths_are_bit_identical(
        self, planted_2d_relation: Relation, tmp_path
    ) -> None:
        """In-memory source, chunked source, and CSV file: one rectangle."""
        path = tmp_path / "planted.csv"
        write_csv(planted_2d_relation, path)
        kwargs = dict(min_support=0.05, grid=(12, 12))
        whole = mine_rectangle_rule(
            RelationSource(planted_2d_relation), "age", "balance",
            BooleanIs("card_loan"), **kwargs,
        )
        chunked = mine_rectangle_rule(
            RelationSource(planted_2d_relation, chunk_size=3_000), "age", "balance",
            BooleanIs("card_loan"), **kwargs,
        )
        streamed = mine_rectangle_rule(
            CSVSource(path, chunk_size=3_000), "age", "balance",
            BooleanIs("card_loan"), **kwargs,
        )
        assert whole == chunked == streamed
        assert whole is not None
        assert whole.confidence > 0.6

    def test_streamed_rectangle_matches_prebuilt_builder(
        self, planted_2d_relation: Relation
    ) -> None:
        source = RelationSource(planted_2d_relation, chunk_size=5_000)
        builder = GridProfileBuilder(num_buckets=10, executor="streaming", seed=3)
        via_builder = mine_rectangle_rule(
            source, "age", "balance", BooleanIs("card_loan"),
            min_support=0.05, grid=(10, 10), builder=builder,
        )
        assert via_builder is not None
        assert via_builder.support >= 0.05
