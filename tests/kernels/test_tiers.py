"""Kernel-tier selection.

The tier resolver is pure policy (keyword > ``REPRO_KERNEL_TIER`` > auto):
every accepted name resolves to the one NumPy counting kernel, and the
retired ``"compiled"`` tier is a typed error at every entry point.  The
counting kernel's own parity oracles live in ``tests/bucketing``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import KernelError
from repro.kernels import (
    DEFAULT_KERNEL_TIER,
    KERNEL_TIER_ENV,
    KERNEL_TIERS,
    resolve_kernel_tier,
)
from repro.pipeline import ProfileBuilder, RelationSource, ScanPlan
from repro.relation import BooleanIs


@pytest.fixture(autouse=True)
def _clean_tier_env(monkeypatch):
    """Tier resolution must be driven by each test, not the host machine."""
    monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)


class TestResolveKernelTier:
    def test_auto_resolves_to_numpy(self) -> None:
        assert resolve_kernel_tier("auto") == "numpy"
        assert resolve_kernel_tier(None) == "numpy"
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
        monkeypatch.setenv(KERNEL_TIER_ENV, "turbo")
        assert resolve_kernel_tier("auto") == "numpy"

    def test_unknown_tier_rejected(self) -> None:
        with pytest.raises(KernelError):
            resolve_kernel_tier("gpu")
        assert set(KERNEL_TIERS) == {"auto", "numpy"}

    def test_unknown_environment_tier_rejected(self, monkeypatch) -> None:
        monkeypatch.setenv(KERNEL_TIER_ENV, "turbo")
        with pytest.raises(KernelError):
            resolve_kernel_tier(None)

    def test_compiled_tier_rejected(self, monkeypatch) -> None:
        with pytest.raises(KernelError, match="removed"):
            resolve_kernel_tier("compiled")
        monkeypatch.setenv(KERNEL_TIER_ENV, "Compiled")
        with pytest.raises(KernelError, match="removed"):
            resolve_kernel_tier(None)


class TestTierThreading:
    def test_builder_resolves_and_exposes_tier(self) -> None:
        assert ProfileBuilder(kernel_tier="numpy").kernel_tier == "numpy"
        assert ProfileBuilder().kernel_tier == "numpy"

    def test_builder_honors_environment(self, monkeypatch) -> None:
        monkeypatch.setenv(KERNEL_TIER_ENV, "numpy")
        assert ProfileBuilder().kernel_tier == "numpy"

    def test_builder_rejects_unknown_tier(self) -> None:
        with pytest.raises(KernelError):
            ProfileBuilder(kernel_tier="fortran")

    def test_tier_names_count_identically(self, small_relation) -> None:
        source = RelationSource(small_relation)
        plan = ScanPlan()
        request = plan.add_bucket(
            "balance",
            objectives=[BooleanIs("card_loan"), BooleanIs("auto_withdrawal")],
        )
        profiles = []
        for tier in ("numpy", "auto", None):
            builder = ProfileBuilder(num_buckets=4, seed=0, kernel_tier=tier)
            results = builder.execute_plan(source, plan)
            profiles.append(results.counts(request).profile(BooleanIs("card_loan")))
        for profile in profiles[1:]:
            assert np.array_equal(profile.sizes, profiles[0].sizes)
            assert np.array_equal(profile.values, profiles[0].values)

    def test_plan_signature_is_tier_independent(self) -> None:
        from repro.store.profile_store import plan_signature

        plan = ScanPlan()
        plan.add_bucket("balance", objectives=[BooleanIs("card_loan")])
        explicit = ProfileBuilder(num_buckets=8, seed=3, kernel_tier="numpy")
        resolved = ProfileBuilder(num_buckets=8, seed=3)  # auto
        assert plan_signature(explicit, plan) == plan_signature(resolved, plan)

    def test_compiled_tier_rejected_at_every_entry_point(
        self, small_relation
    ) -> None:
        from repro.core.miner import OptimizedRuleMiner
        from repro.mining import mine_rule_catalog

        source = RelationSource(small_relation)
        with pytest.raises(KernelError):
            ProfileBuilder(kernel_tier="compiled")
        with pytest.raises(KernelError):
            OptimizedRuleMiner(source, num_buckets=4, kernel_tier="compiled")
        with pytest.raises(KernelError):
            mine_rule_catalog(source, num_buckets=4, kernel_tier="compiled")

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
