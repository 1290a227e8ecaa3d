"""Kernel-tier selection and compiled/numpy parity.

The tier resolver is pure policy (keyword > ``REPRO_KERNEL_TIER`` > auto)
and is tested exhaustively on every machine.  The parity oracles — the
contract that the compiled tier is **bit-identical** to the numpy tier on
the fused counting kernel — run wherever numba is installed and skip (never
fail) elsewhere; the numpy-only assertions of the same scenarios still run
so a fallback environment exercises every code path short of the compiled
loops themselves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bucketing import Bucketing
from repro.bucketing.counting import (
    AxisSpec,
    GridSegment,
    KernelPlan,
    ValueSegment,
    count_plan_chunk,
)
from repro.exceptions import KernelError
from repro.kernels import (
    DEFAULT_KERNEL_TIER,
    HAVE_NUMBA,
    KERNEL_TIER_ENV,
    KERNEL_TIERS,
    load_compiled,
    resolve_kernel_tier,
)
from repro.pipeline import ProfileBuilder, RelationSource, ScanPlan
from repro.pipeline.builder import CompiledPlan
from repro.relation import BooleanIs

needs_numba = pytest.mark.skipif(
    not HAVE_NUMBA, reason="numba is not installed; compiled tier unavailable"
)


@pytest.fixture(autouse=True)
def _clean_tier_env(monkeypatch):
    """Tier resolution must be driven by each test, not the host machine."""
    monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)


class TestResolveKernelTier:
    def test_auto_matches_numba_availability(self) -> None:
        expected = "compiled" if HAVE_NUMBA else "numpy"
        assert resolve_kernel_tier("auto") == expected
        assert resolve_kernel_tier(None) == expected
        assert DEFAULT_KERNEL_TIER == "auto"

    def test_explicit_numpy(self) -> None:
        assert resolve_kernel_tier("numpy") == "numpy"

    def test_normalizes_case_and_whitespace(self) -> None:
        assert resolve_kernel_tier("  NumPy ") == "numpy"
        assert resolve_kernel_tier("AUTO") == resolve_kernel_tier("auto")

    def test_environment_variable_is_the_default(self, monkeypatch) -> None:
        monkeypatch.setenv(KERNEL_TIER_ENV, "numpy")
        assert resolve_kernel_tier(None) == "numpy"
        # An explicit keyword always wins over the environment.
        expected = "compiled" if HAVE_NUMBA else "numpy"
        assert resolve_kernel_tier("auto") == expected

    def test_unknown_tier_rejected(self) -> None:
        with pytest.raises(KernelError):
            resolve_kernel_tier("gpu")
        assert set(KERNEL_TIERS) == {"auto", "numpy", "compiled"}

    def test_unknown_environment_tier_rejected(self, monkeypatch) -> None:
        monkeypatch.setenv(KERNEL_TIER_ENV, "turbo")
        with pytest.raises(KernelError):
            resolve_kernel_tier(None)

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed")
    def test_compiled_without_numba_rejected(self) -> None:
        with pytest.raises(KernelError):
            resolve_kernel_tier("compiled")
        with pytest.raises(KernelError):
            load_compiled()

    @needs_numba
    def test_compiled_with_numba(self) -> None:
        assert resolve_kernel_tier("compiled") == "compiled"
        kernels = load_compiled()
        assert hasattr(kernels, "assign_buckets")


class TestTierThreading:
    def test_builder_resolves_and_exposes_tier(self) -> None:
        assert ProfileBuilder(kernel_tier="numpy").kernel_tier == "numpy"
        expected = "compiled" if HAVE_NUMBA else "numpy"
        assert ProfileBuilder().kernel_tier == expected

    def test_builder_honors_environment(self, monkeypatch) -> None:
        monkeypatch.setenv(KERNEL_TIER_ENV, "numpy")
        assert ProfileBuilder().kernel_tier == "numpy"

    def test_builder_rejects_unknown_tier(self) -> None:
        with pytest.raises(KernelError):
            ProfileBuilder(kernel_tier="fortran")

    def test_compiled_plan_carries_tier(self, small_relation) -> None:
        builder = ProfileBuilder(
            num_buckets=4, seed=0, kernel_tier="numpy"
        )
        plan = ScanPlan()
        plan.add_bucket("balance", objectives=[BooleanIs("card_loan")])
        source = RelationSource(small_relation)
        bucketings = builder.sample_axis_bucketings(
            source, builder.plan_axis_pairs(plan)
        )
        compiled = builder.compile_plan(plan, bucketings)
        assert isinstance(compiled, CompiledPlan)
        assert compiled.kernel_tier == "numpy"

    def test_plan_signature_is_tier_independent(self) -> None:
        from repro.store.profile_store import plan_signature

        plan = ScanPlan()
        plan.add_bucket("balance", objectives=[BooleanIs("card_loan")])
        explicit = ProfileBuilder(num_buckets=8, seed=3, kernel_tier="numpy")
        resolved = ProfileBuilder(num_buckets=8, seed=3)  # auto
        assert plan_signature(explicit, plan) == plan_signature(resolved, plan)

    def test_count_plan_chunk_rejects_unresolved_tier(self) -> None:
        plan = KernelPlan(
            axes=(AxisSpec(column=0, cuts=np.array([1.0])),),
            segments=(ValueSegment(axis=0),),
        )
        payload = ([np.array([0.5, 1.5])], None, None)
        with pytest.raises(KernelError):
            count_plan_chunk(plan, payload, tier="auto")
        with pytest.raises(KernelError):
            count_plan_chunk(plan, payload, tier="avx")

    def test_miner_and_catalog_accept_kernel_tier(self, small_relation) -> None:
        from repro.core.miner import OptimizedRuleMiner
        from repro.mining import mine_rule_catalog

        source = RelationSource(small_relation)
        miner = OptimizedRuleMiner(
            source, num_buckets=4, kernel_tier="numpy"
        )
        rule = miner.optimized_confidence_rule(
            "balance", "card_loan", min_support=0.2
        )
        assert rule is not None
        catalog = mine_rule_catalog(
            source, num_buckets=4, kernel_tier="numpy"
        )
        assert len(catalog) >= 0  # smoke: the keyword threads through


def _random_plan_and_payload(rng: np.random.Generator, num_tuples: int):
    """A randomized multi-axis plan exercising every kernel entry point."""
    cuts_a = np.sort(rng.normal(size=5))
    cuts_b = np.sort(rng.normal(size=3))
    columns = [
        rng.normal(size=num_tuples),
        rng.normal(size=num_tuples),
    ]
    if num_tuples:
        # NaN holes: assignment must route them to the overflow bucket.
        columns[0][rng.random(num_tuples) < 0.1] = np.nan
    masks = rng.random((3, num_tuples)) < 0.5
    weights = rng.normal(size=(2, num_tuples))
    plan = KernelPlan(
        axes=(
            AxisSpec(column=0, cuts=cuts_a),
            AxisSpec(column=1, cuts=cuts_b),
        ),
        segments=(
            ValueSegment(
                axis=0,
                mask_slots=(0, 2),
                weight_slots=(0, 1),
                bound_mask_slots=(1,),
            ),
            ValueSegment(axis=1, mask_slots=(1,)),
            GridSegment(row_axis=0, column_axis=1, mask_slots=(0, 1)),
        ),
    )
    return plan, (columns, masks, weights)


def _assert_plan_counts_equal(left, right) -> None:
    assert len(left.parts) == len(right.parts)
    for ours, theirs in zip(left.parts, right.parts):
        for name in (
            "sizes",
            "conditional",
            "sums",
            "lows",
            "highs",
            "mask_lows",
            "mask_highs",
            "row_lows",
            "row_highs",
            "column_lows",
            "column_highs",
        ):
            mine = getattr(ours, name, None)
            other = getattr(theirs, name, None)
            assert (mine is None) == (other is None)
            if mine is not None:
                assert np.array_equal(
                    np.asarray(mine), np.asarray(other), equal_nan=True
                ), name
        assert ours.num_tuples == theirs.num_tuples


@needs_numba
class TestCompiledCountingParity:
    """Randomized bit-parity oracle: compiled == numpy on the fused kernel."""

    @pytest.mark.parametrize("num_tuples", [0, 1, 7, 1000])
    def test_fused_plan_counts_bit_identical(self, num_tuples: int) -> None:
        rng = np.random.default_rng(num_tuples + 99)
        plan, payload = _random_plan_and_payload(rng, num_tuples)
        baseline = count_plan_chunk(plan, payload, tier="numpy")
        compiled = count_plan_chunk(plan, payload, tier="compiled")
        _assert_plan_counts_equal(compiled, baseline)

    def test_single_bucket_axis(self) -> None:
        rng = np.random.default_rng(7)
        values = rng.normal(size=50)
        plan = KernelPlan(
            axes=(AxisSpec(column=0, cuts=np.array([], dtype=float)),),
            segments=(ValueSegment(axis=0, mask_slots=(0,)),),
        )
        payload = ([values], rng.random((1, 50)) < 0.5, None)
        baseline = count_plan_chunk(plan, payload, tier="numpy")
        compiled = count_plan_chunk(plan, payload, tier="compiled")
        _assert_plan_counts_equal(compiled, baseline)

    def test_assignment_matches_bucketing_assign(self) -> None:
        rng = np.random.default_rng(11)
        kernels = load_compiled()
        for size in (0, 1, 4096):
            values = rng.normal(size=size)
            if size:
                values[rng.random(size) < 0.2] = np.nan
            cuts = np.sort(rng.normal(size=9))
            bucketing = Bucketing(cuts)
            assert np.array_equal(
                kernels.assign_buckets(values, bucketing.cuts),
                bucketing.assign(values),
            )


@needs_numba
class TestCompiledEndToEndParity:
    def test_profiles_bit_identical_across_tiers(self, small_relation) -> None:
        source = RelationSource(small_relation)
        plan = ScanPlan()
        request = plan.add_bucket(
            "balance",
            objectives=[BooleanIs("card_loan"), BooleanIs("auto_withdrawal")],
        )
        profiles = {}
        for tier in ("numpy", "compiled"):
            builder = ProfileBuilder(num_buckets=4, seed=0, kernel_tier=tier)
            results = builder.execute_plan(source, plan)
            profiles[tier] = results.counts(request).profile(
                BooleanIs("card_loan")
            )
        numpy_profile, compiled_profile = (
            profiles["numpy"], profiles["compiled"],
        )
        assert np.array_equal(numpy_profile.sizes, compiled_profile.sizes)
        assert np.array_equal(numpy_profile.values, compiled_profile.values)
